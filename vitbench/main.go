// Command vitbench is the vitdyn benchmark. It builds nothing itself:
// run.sh builds it and vitdynd from source, then runs one workload.
//
//	vitbench -workload warm|cold|mixed|fleet -seed N -seconds S -trace 0|1
//	         [-bin vitdynd] [-out DIR]
//
// Each run spawns vitdynd child processes on loopback, drives them over
// HTTP from this one process (at most `clients` requests in flight),
// checks every response, and prints a human-readable report followed by
// one JSON line: {"correct", "attempted", "failed", "metrics"}. With
// -trace 0 the metrics are the end-to-end set; with -trace 1 they are
// the per-layer set from a separate traced run. The exit code is 1 when
// any output check failed. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	// The generator allocates per request; fewer collections keep its
	// own pauses out of the latencies it measures.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times a run sets its daemons up; setup_s is the
// median, and the last set-up serves the timed load.
const setups = 5

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vitbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "warm, cold, mixed or fleet")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same requests")
	seconds := fs.Float64("seconds", 15, "measured load duration")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	bin := fs.String("bin", "vitdynd", "vitdynd binary")
	out := fs.String("out", ".bench_build", "directory for temporary stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "vitbench: want -workload warm|cold|mixed|fleet, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	work := filepath.Join(*out, "work", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(stderr, "vitbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{ctx: ctx, bin: *bin, work: work, in: NewInputs(*seed)}
	dur := time.Duration(*seconds * float64(time.Second))

	var res result
	var report string
	err := func() error {
		if w.prepare != nil {
			if err := w.prepare(e); err != nil {
				return fmt.Errorf("prepare: %w", err)
			}
		}
		var err error
		if *trace == 1 {
			res, report, err = tracedRun(e, w, dur, filepath.Join(*out, "traces"))
		} else {
			res, report, err = measuredRun(e, w, dur)
		}
		return err
	}()
	if err != nil {
		fmt.Fprintf(stderr, "vitbench %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(stdout, "vitbench %s seed=%d seconds=%g trace=%d\n%s", *name, *seed, *seconds, *trace, report)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "vitbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measured is one timed load phase plus the daemon-side readings taken
// around it.
type measured struct {
	phase
	cpu           cpuTrace // daemon CPU, summed, sampled through the window
	rssMB         float64  // daemon peak RSS at its end, summed
	before, after []statsz // traced runs only
}

// cpuTrace is a series of readings taken through a timed window: the
// daemons' cumulative CPU ms, and the host's cumulative stolen and total
// CPU ticks from /proc/stat.
type cpuTrace struct {
	at               []time.Time
	ms               []float64
	steal, hostTotal []float64
}

// cpuSampleEvery is how often the CPU counters are read.
const cpuSampleEvery = 100 * time.Millisecond

func (c *cpuTrace) add(t time.Time, ms float64) {
	steal, total := hostSteal()
	c.at = append(c.at, t)
	c.ms = append(c.ms, ms)
	c.steal = append(c.steal, float64(steal))
	c.hostTotal = append(c.hostTotal, float64(total))
}

// interp interpolates the cumulative series ys at t between the
// readings around it.
func (c cpuTrace) interp(ys []float64, t time.Time) float64 {
	if len(c.at) == 0 {
		return 0
	}
	for i := 1; i < len(c.at); i++ {
		if !c.at[i].Before(t) {
			f := float64(t.Sub(c.at[i-1])) / float64(c.at[i].Sub(c.at[i-1]))
			f = max(0, min(1, f))
			return ys[i-1] + f*(ys[i]-ys[i-1])
		}
	}
	return ys[len(ys)-1]
}

// between is the daemons' CPU ms spent in [from, to).
func (c cpuTrace) between(from, to time.Time) float64 {
	return c.interp(c.ms, to) - c.interp(c.ms, from)
}

// stealShare is the share of the host's CPU time the hypervisor stole
// in [from, to); 0 outside the sampled window.
func (c cpuTrace) stealShare(from, to time.Time) float64 {
	return ratio(c.interp(c.steal, to)-c.interp(c.steal, from), c.interp(c.hostTotal, to)-c.interp(c.hostTotal, from))
}

// sampleCPU reads cumulative CPU every cpuSampleEvery, and once more
// at each end, until stop is closed. A failed read is skipped.
func sampleCPU(read func() (float64, error), stop <-chan struct{}) cpuTrace {
	var tr cpuTrace
	sample := func() {
		if ms, err := read(); err == nil {
			tr.add(time.Now(), ms)
		}
	}
	sample()
	tick := time.NewTicker(cpuSampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			sample()
			return tr
		case <-tick.C:
			sample()
		}
	}
}

// measure runs one timed load phase on a booted fleet.
func measure(e *env, w *workload, f *fleet, dur time.Duration, traced bool, id string) (measured, error) {
	var m measured
	readCPU := func() (float64, error) {
		var total float64
		for _, d := range f.ds {
			ms, err := d.cpuMS()
			if err != nil {
				return 0, err
			}
			total += ms
		}
		return total, nil
	}
	readStatsz := func() ([]statsz, error) {
		var out []statsz
		for _, d := range f.ds {
			st, err := d.statsz()
			if err != nil {
				return nil, err
			}
			out = append(out, st)
		}
		return out, nil
	}
	var err error
	if traced {
		if m.before, err = readStatsz(); err != nil {
			return m, err
		}
	}
	stop := make(chan struct{})
	sampled := make(chan cpuTrace)
	go func() { sampled <- sampleCPU(readCPU, stop) }()
	stopped := false
	defer func() {
		if !stopped {
			close(stop)
			<-sampled
		}
	}()
	m.phase = w.load(e, f, dur, traced, id)
	for _, d := range f.ds {
		rss, err := d.peakRSSMB()
		if err != nil {
			return m, err
		}
		m.rssMB += rss
	}
	if traced {
		if m.after, err = readStatsz(); err != nil {
			return m, err
		}
	}
	if w.verify != nil {
		w.verify(e, f, &m.phase)
	}
	// Sampling runs on through verify, so the host steal behind the
	// requests it times is known too.
	close(stop)
	stopped = true
	if m.cpu = <-sampled; len(m.cpu.ms) < 2 {
		return m, fmt.Errorf("could not read the daemons' CPU time from /proc")
	}
	for _, d := range f.ds {
		if d.exited() {
			return m, fmt.Errorf("vitdynd on %s exited during the run: %s", d.addr, tail(d.log))
		}
	}
	return m, nil
}

// boot sets a workload's daemons up and times it.
func boot(e *env, w *workload, tag string, requestzCap int) (*fleet, float64, error) {
	t0 := time.Now()
	f, err := w.boot(e, filepath.Join(e.work, tag), requestzCap)
	return f, time.Since(t0).Seconds(), err
}

// measuredRun is the untraced run: `setups` timed set-ups, then one
// timed load on the last, reported as the end-to-end metrics.
func measuredRun(e *env, w *workload, dur time.Duration) (result, string, error) {
	var setupS []float64
	var f *fleet
	for b := 0; b < setups; b++ {
		var s float64
		var err error
		if f, s, err = boot(e, w, fmt.Sprintf("boot-%d", b), 0); err != nil {
			return result{}, "", err
		}
		setupS = append(setupS, s)
		if b < setups-1 {
			stopFleet(f.ds)
		}
	}
	m, err := measure(e, w, f, dur, false, "")
	stopFleet(f.ds)
	if err != nil {
		return result{}, "", err
	}
	res, report := endToEnd(m, setupS)
	return res, report, nil
}

// byKind splits samples by kind.
func byKind(samples []sample) map[string][]sample {
	out := map[string][]sample{}
	for _, s := range samples {
		out[s.kind] = append(out[s.kind], s)
	}
	return out
}

func latenciesMS(samples []sample) []float64 {
	ds := make([]time.Duration, len(samples))
	for i, s := range samples {
		ds[i] = s.latency()
	}
	return sortedMS(ds)
}

// tally counts a phase's attempted and failed requests and whether its
// outputs were correct. A refused request counts as failed but not as
// wrong output; any other failure means the program misbehaved.
func tally(p phase) (attempted, failed int, correct bool, firstErr error) {
	correct = true
	for _, s := range append(append([]sample(nil), p.samples...), p.extra...) {
		attempted++
		if !s.ok() {
			failed++
			if !s.refused {
				correct = false
			}
			if firstErr == nil {
				firstErr = s.err
			}
		}
	}
	attempted += len(p.checks)
	failed += len(p.checks)
	if len(p.checks) > 0 {
		correct = false
		if firstErr == nil {
			firstErr = p.checks[0]
		}
	}
	return attempted, failed, correct, firstErr
}

// A run's timed window is cut into equal time slices of at least
// sliceMin requests each, at most maxSlices. Throughput, latency
// percentiles and CPU per request are computed per slice, and the
// median is taken over the quieter half of the slices: those in which
// the hypervisor stole the least of the host's CPU time (/proc/stat),
// a signal the program under test does not produce. Time stolen from
// the VM is not the program's, and on a shared host it comes in bursts
// that would otherwise decide a run's tail. A run with fewer than
// 2·sliceMin requests is one slice: its figures are over all requests.
const (
	sliceMin  = 1000
	maxSlices = 20
)

func sliceCount(n int) int { return max(1, min(maxSlices, n/sliceMin)) }

// slicing is a window's samples cut into time slices, with the slices
// the figures are taken from.
type slicing struct {
	start  time.Time
	span   time.Duration
	slices [][]sample
	kept   []int     // indices of the non-empty slices kept
	steal  []float64 // per kept slice, the host's steal share
}

// newSlicing cuts samples into equal slices of [start, start+span) by
// due time (samples due after the span land in the last slice) and keeps
// the non-empty slices whose steal share is at most the median.
func newSlicing(samples []sample, start time.Time, span time.Duration, cpu cpuTrace) slicing {
	k := sliceCount(len(samples))
	sl := slicing{start: start, span: span, slices: make([][]sample, k)}
	for _, s := range samples {
		i := max(0, min(k-1, int(float64(s.due.Sub(start))/float64(span)*float64(k))))
		sl.slices[i] = append(sl.slices[i], s)
	}
	var shares []float64
	for i := range sl.slices {
		if len(sl.slices[i]) > 0 {
			shares = append(shares, cpu.stealShare(sl.bounds(i)))
		}
	}
	cut := median(shares)
	for i := range sl.slices {
		if len(sl.slices[i]) == 0 {
			continue
		}
		if share := cpu.stealShare(sl.bounds(i)); share <= cut {
			sl.kept = append(sl.kept, i)
			sl.steal = append(sl.steal, share)
		}
	}
	return sl
}

// bounds is slice i's time range.
func (sl slicing) bounds(i int) (time.Time, time.Time) {
	k := len(sl.slices)
	return sl.start.Add(time.Duration(float64(sl.span) * float64(i) / float64(k))),
		sl.start.Add(time.Duration(float64(sl.span) * float64(i+1) / float64(k)))
}

// values computes f on each kept slice.
func (sl slicing) values(f func(i int, slice []sample) float64) []float64 {
	out := make([]float64, len(sl.kept))
	for j, i := range sl.kept {
		out[j] = f(i, sl.slices[i])
	}
	return out
}

// firstDue is the earliest due time among samples.
func firstDue(samples []sample) time.Time {
	var t time.Time
	for _, s := range samples {
		if t.IsZero() || s.due.Before(t) {
			t = s.due
		}
	}
	return t
}

func countOK(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.ok() {
			n++
		}
	}
	return n
}

// endToEnd derives the end-to-end metrics and the report.
func endToEnd(m measured, setupS []float64) (result, string) {
	attempted, failed, correct, firstErr := tally(m.phase)
	timed := m.samples
	all := append(append([]sample(nil), timed...), m.extra...)
	var hits []sample
	inSLO := 0
	for _, s := range all {
		if strings.HasPrefix(s.kind, "hit/") {
			hits = append(hits, s)
		}
		if s.ok() && float64(s.latency())/float64(time.Millisecond) <= sloMS[s.kind] {
			inSLO++
		}
	}
	ok := countOK(timed)
	win := newSlicing(timed, firstDue(timed), m.wall, m.cpu)
	hitStart := firstDue(hits)
	var hitSpan time.Duration
	for _, s := range hits {
		hitSpan = max(hitSpan, s.due.Sub(hitStart)+1)
	}
	hitWin := newSlicing(hits, hitStart, hitSpan, m.cpu)
	pct := func(p float64) func(int, []sample) float64 {
		return func(_ int, sl []sample) float64 { return percentile(latenciesMS(sl), p) }
	}
	sliceSeconds := m.wall.Seconds() / float64(len(win.slices))
	throughput := win.values(func(_ int, sl []sample) float64 { return float64(countOK(sl)) / sliceSeconds })
	cpuPerReq := win.values(func(i int, sl []sample) float64 {
		return m.cpu.between(win.bounds(i)) / float64(max(1, countOK(sl)))
	})
	p50 := win.values(pct(50))
	p99 := win.values(pct(99))
	hitP99 := hitWin.values(pct(99))
	metrics := map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"throughput_rps": {median(throughput), "1/s"},
		"p50_ms":         {median(p50), "ms"},
		"p99_ms":         {median(p99), "ms"},
		"hit_p99_ms":     {median(hitP99), "ms"},
		"slo_ratio":      {float64(inSLO) / float64(max(1, len(all))), "ratio"},
		"ok_ratio":       {1 - float64(failed)/float64(max(1, attempted)), "ratio"},
		"cpu_ms_per_req": {median(cpuPerReq), "ms"},
		"rss_peak_mb":    {m.rssMB, "MiB"},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  set-ups (s): %v\n", fmtFloats(setupS))
	fmt.Fprintf(&b, "  %d requests in %.2fs (%d ok, %.1f/s overall), %d attempted in all, %d failed, %.0f ms daemon CPU\n",
		len(timed), m.wall.Seconds(), ok, float64(ok)/m.wall.Seconds(), attempted, failed, m.cpu.between(win.start, win.start.Add(m.wall)))
	if firstErr != nil {
		fmt.Fprintf(&b, "  first failure: %v\n", firstErr)
	}
	stolen := m.cpu.stealShare(win.start, win.start.Add(m.wall))
	fmt.Fprintf(&b, "  host: %.1f%% of CPU time stolen by the hypervisor in the window; %.1f%% at most in the kept slices\n",
		100*stolen, 100*slices.Max(append([]float64{0}, win.steal...)))
	n, nh := len(timed), len(hits)
	fmt.Fprintf(&b, "  p50/p99: median over %d of %d slices of n=%d (%d beyond p99 per slice%s); hit_p99: %d of %d slices of n=%d (%d beyond%s)\n",
		len(win.kept), len(win.slices), n, tailSamples(n/sliceCount(n), 99), thin(n/sliceCount(n)),
		len(hitWin.kept), len(hitWin.slices), nh, tailSamples(nh/sliceCount(nh), 99), thin(nh/sliceCount(nh)))
	for _, sv := range []struct {
		name string
		vals []float64
	}{{"throughput_rps", throughput}, {"p50_ms", p50}, {"p99_ms", p99}, {"hit_p99_ms", hitP99}, {"cpu_ms_per_req", cpuPerReq}} {
		s := append([]float64(nil), sv.vals...)
		sort.Float64s(s)
		if len(s) > 0 {
			fmt.Fprintf(&b, "  %-15s per slice: min %.4g, median %.4g, max %.4g\n", sv.name, s[0], median(s), s[len(s)-1])
		}
	}
	var late []time.Duration
	for _, s := range timed {
		late = append(late, s.lateness())
	}
	lateMS := sortedMS(late)
	fmt.Fprintf(&b, "  generator lateness p50 %.3f ms, p99 %.3f ms\n", percentile(lateMS, 50), percentile(lateMS, 99))
	b.WriteString(kindTable(all))
	writeMetrics(&b, metrics)
	return result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics}, b.String()
}

// thin flags a p99 with too few samples beyond it to be measured.
func thin(n int) string {
	if tailSupported(n, 99) {
		return ""
	}
	return ", TOO FEW"
}

// kindTable renders per-kind counts, latency percentiles and limits.
func kindTable(samples []sample) string {
	var b strings.Builder
	kinds := byKind(samples)
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "  %-12s %8s %8s %10s %10s %10s %8s\n", "kind", "n", "failed", "p50_ms", "p99_ms", "max_ms", "limit")
	for _, k := range names {
		ss := kinds[k]
		lat := latenciesMS(ss)
		bad := 0
		for _, s := range ss {
			if !s.ok() {
				bad++
			}
		}
		fmt.Fprintf(&b, "  %-12s %8d %8d %10.3f %10.3f %10.3f %8g\n", k, len(ss), bad, percentile(lat, 50), percentile(lat, 99), percentile(lat, 100), sloMS[k])
	}
	return b.String()
}

func writeMetrics(b *strings.Builder, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b, "  %-30s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
