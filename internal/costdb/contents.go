package costdb

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// contents is a Persistent's in-memory copy of its durable entries, laid
// out for size. A map of string-keyed value slices cost ~200 bytes per
// entry and, at a few hundred thousand entries, most of a daemon's
// memory; here a one-value entry is ~26 bytes, holds no pointers and
// lives off the Go heap where anonymous mappings are available (see
// alloc), so the garbage collector neither scans it nor lets it double
// the heap goal:
//
//   - records are numbered in insert order — the delta cursor space —
//     and stored as parallel chunked arrays (signature, value, column
//     and length), so growth never copies;
//   - a one-value record keeps its value inline; longer vectors live in
//     an arena and the record keeps their offset;
//   - (backend, epoch) pairs are interned as columns;
//   - index is an open-addressing table of record numbers.
//
// Value slices the table returns alias it: Persistent copies them before
// they leave its lock, so release can unmap the table whole on Close.
// contents is not safe for concurrent use; Persistent guards it.
type contents struct {
	cols   []column
	colIdx map[column]uint16

	sigs  chunked[uint64]
	vals  chunked[float64] // the value, or (count > 1) the arena offset's bits
	meta  chunked[uint32]  // column << 16 | value count; count 0 once retired
	arena [][]float64
	nvals int // arena floats in use, counting chunk-boundary padding

	nrecs, live int
	index       []uint32 // record number + 1; 0 = empty slot

	regions     [][]byte // the mappings behind the chunks, for release
	indexRegion []byte   // the mapping behind index, if it has one
}

// column is one interned (backend, epoch) pair.
type column struct {
	backend string
	epoch   uint64
}

const (
	chunkShift = 12      // records per chunk: 4096
	arenaChunk = 1 << 13 // floats per arena chunk, >= maxVals
	maxCols    = 1<<16 - 1
)

// chunked is an append-only array in fixed-size chunks.
type chunked[T any] struct{ chunks [][]T }

// alloc returns n zeroed values of the pointer-free type T, mapped
// outside the Go heap and recorded for release, or on the heap when the
// mapping fails.
func alloc[T any](c *contents, n int) []T {
	s, region := mapAnon[T](n)
	if region == nil {
		return make([]T, n)
	}
	c.regions = append(c.regions, region)
	return s
}

func (a *chunked[T]) at(i int) *T { return &a.chunks[i>>chunkShift][i&(1<<chunkShift-1)] }

// ensure makes element i addressable.
func (a *chunked[T]) ensure(c *contents, i int) {
	if i>>chunkShift == len(a.chunks) {
		a.chunks = append(a.chunks, alloc[T](c, 1<<chunkShift))
	}
}

func newContents() *contents {
	return &contents{colIdx: map[column]uint16{}}
}

// values returns record i's values. The slice aliases the table: callers
// must not modify it (its capacity is clipped, so appends copy).
func (c *contents) values(i int) []float64 {
	n := int(*c.meta.at(i) & 0xffff)
	if n == 1 {
		j := i & (1<<chunkShift - 1)
		return c.vals.chunks[i>>chunkShift][j : j+1 : j+1]
	}
	off := int(math.Float64bits(*c.vals.at(i)))
	j := off % arenaChunk
	return c.arena[off/arenaChunk][j : j+n : j+n]
}

// entry returns record i as an Entry whose Vals alias the table, and
// whether the record is live (not retired).
func (c *contents) entry(i int) (Entry, bool) {
	m := *c.meta.at(i)
	if m&0xffff == 0 {
		return Entry{}, false
	}
	col := c.cols[m>>16]
	return Entry{Backend: col.backend, Epoch: col.epoch, Sig: *c.sigs.at(i), Vals: c.values(i)}, true
}

// slot returns the index slot holding (col, sig), or the empty slot where
// it belongs. put keeps the table at most 4/5 full.
func (c *contents) slot(col uint16, sig uint64) int {
	// Fibonacci hashing scaled to the table size: the product's top bits
	// depend on every bit of the signature and (spread by its own
	// multiply) of the column.
	h := (sig ^ uint64(col)*0xbf58476d1ce4e5b9) * 0x9e3779b97f4a7c15
	hi, _ := bits.Mul64(h, uint64(len(c.index)))
	for i := int(hi); ; {
		n := c.index[i]
		if n == 0 || (*c.sigs.at(int(n - 1)) == sig && uint16(*c.meta.at(int(n - 1))>>16) == col) {
			return i
		}
		if i++; i == len(c.index) {
			i = 0
		}
	}
}

// get returns the values stored for a key.
func (c *contents) get(backend string, epoch, sig uint64) ([]float64, bool) {
	col, ok := c.colIdx[column{backend, epoch}]
	if !ok || len(c.index) == 0 {
		return nil, false
	}
	n := c.index[c.slot(col, sig)]
	if n == 0 {
		return nil, false
	}
	return c.values(int(n - 1)), true
}

// put stores vals under the key and reports whether the key is new. An
// existing key keeps its values unless overwrite is set.
func (c *contents) put(backend string, epoch, sig uint64, vals []float64, overwrite bool) (bool, error) {
	if len(vals) == 0 || len(vals) > maxVals {
		return false, fmt.Errorf("costdb: cost vector length %d outside 1..%d (backend %q)", len(vals), maxVals, backend)
	}
	key := column{backend, epoch}
	col, ok := c.colIdx[key]
	if !ok {
		if len(c.cols) == maxCols {
			return false, fmt.Errorf("costdb: more than %d (backend, epoch) pairs", maxCols)
		}
		col = uint16(len(c.cols))
		c.cols = append(c.cols, key)
		c.colIdx[key] = col
	}
	if 5*(c.live+1) > 4*len(c.index) {
		c.reindex(max(1024, 3*len(c.index)/2))
	}
	s := c.slot(col, sig)
	i, isNew := int(c.index[s])-1, c.index[s] == 0
	switch {
	case isNew:
		i = c.nrecs
		c.sigs.ensure(c, i)
		c.vals.ensure(c, i)
		c.meta.ensure(c, i)
		c.nrecs++
		c.live++
		c.index[s] = uint32(c.nrecs)
		*c.sigs.at(i) = sig
	case !overwrite:
		return false, nil
	}
	*c.meta.at(i) = uint32(col)<<16 | uint32(len(vals))
	if len(vals) == 1 {
		*c.vals.at(i) = vals[0]
	} else {
		*c.vals.at(i) = math.Float64frombits(uint64(c.store(vals)))
	}
	return isNew, nil
}

// store copies vals into the arena and returns their offset. A vector
// never straddles two chunks.
func (c *contents) store(vals []float64) int {
	if c.nvals%arenaChunk+len(vals) > arenaChunk {
		c.nvals += arenaChunk - c.nvals%arenaChunk
	}
	if c.nvals/arenaChunk == len(c.arena) {
		c.arena = append(c.arena, alloc[float64](c, arenaChunk))
	}
	off := c.nvals
	copy(c.arena[off/arenaChunk][off%arenaChunk:], vals)
	c.nvals += len(vals)
	return off
}

// reindex rebuilds the index over the live records with size slots. The
// index never leaves the table, so its old mapping goes at once.
func (c *contents) reindex(size int) {
	if c.indexRegion != nil {
		unmapAnon(c.indexRegion)
	}
	var index []uint32
	if index, c.indexRegion = mapAnon[uint32](size); c.indexRegion == nil {
		index = make([]uint32, size)
	}
	c.index = index
	for i := 0; i < c.nrecs; i++ {
		if m := *c.meta.at(i); m&0xffff != 0 {
			c.index[c.slot(uint16(m>>16), *c.sigs.at(i))] = uint32(i + 1)
		}
	}
}

// release unmaps the table's memory. Its counts stay readable; lookups
// find nothing, and nothing may read a record afterwards.
func (c *contents) release() {
	for _, r := range c.regions {
		unmapAnon(r)
	}
	if c.indexRegion != nil {
		unmapAnon(c.indexRegion)
	}
	*c = contents{colIdx: map[column]uint16{}, nrecs: c.nrecs, live: c.live}
}

// retire drops every entry whose (backend, epoch) stale reports, and
// returns how many it dropped. Their space is not reclaimed: retirement
// follows a backend upgrade, which is rare.
func (c *contents) retire(stale func(backend string, epoch uint64) bool) int {
	dead := make([]bool, len(c.cols))
	someDead := false
	for i, col := range c.cols {
		dead[i] = stale(col.backend, col.epoch)
		someDead = someDead || dead[i]
	}
	if !someDead {
		return 0
	}
	retired := 0
	for i := 0; i < c.nrecs; i++ {
		if m := c.meta.at(i); *m&0xffff != 0 && dead[*m>>16] {
			*m &^= 0xffff
			retired++
		}
	}
	c.live -= retired
	c.reindex(len(c.index))
	return retired
}

// sorted calls fn for every live entry in canonical order (backend,
// epoch, signature — see SortEntries), stopping at the first error. It
// gathers one column at a time, so its scratch space is one column's
// worth of records, not the store's.
func (c *contents) sorted(fn func(Entry) error) error {
	order := make([]int, len(c.cols))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if d := cmp.Compare(c.cols[a].backend, c.cols[b].backend); d != 0 {
			return d
		}
		return cmp.Compare(c.cols[a].epoch, c.cols[b].epoch)
	})
	type sigRec struct {
		sig uint64
		rec uint32
	}
	var part []sigRec
	for _, col := range order {
		part = part[:0]
		for i := 0; i < c.nrecs; i++ {
			if m := *c.meta.at(i); m&0xffff != 0 && int(m>>16) == col {
				part = append(part, sigRec{*c.sigs.at(i), uint32(i)})
			}
		}
		slices.SortFunc(part, func(a, b sigRec) int { return cmp.Compare(a.sig, b.sig) })
		for _, sr := range part {
			e, _ := c.entry(int(sr.rec))
			if err := fn(e); err != nil {
				return err
			}
		}
	}
	return nil
}
