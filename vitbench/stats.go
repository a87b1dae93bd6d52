package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the sample at or below it.
// xs must be sorted ascending; an empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// tailSamples is how many samples lie strictly beyond the nearest-rank
// p-th percentile of n samples.
func tailSamples(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// minTail is the number of samples a reported percentile needs beyond
// it before it counts as measured rather than as one unlucky request.
const minTail = 10

// tailSupported reports whether the p-th percentile of n samples has at
// least minTail samples beyond it.
func tailSupported(n int, p float64) bool { return tailSamples(n, p) >= minTail }

// sortedMS converts durations to sorted milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median returns the median of xs (any order): the middle value, or the
// mean of the middle two; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// interval is a half-open span of wall-clock time in nanoseconds.
type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

// covered returns how much of parent the union of children covers:
// children are clipped to parent and overlaps are counted once.
func covered(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			total += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// selfTime is a span's own time: its duration minus the part of it that
// its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.dur() - covered(parent, children)
}
