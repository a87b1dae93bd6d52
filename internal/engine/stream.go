package engine

// This file is the engine's catalog pipeline: candidates flow through a
// channel, are costed as they arrive, and are reduced into a
// pareto.FrontierBuilder immediately — no intermediate []Candidate or
// []rdd.Path of the full sweep is ever materialized, and a
// FLOPs-proxy admission pre-filter can skip the expensive backend for
// candidates that are provably dominated already.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vitdyn/internal/pareto"
	"vitdyn/internal/rdd"
)

// CandidateSeq is a push generator of candidates — the streaming
// equivalent of a []Candidate. It must call yield once per candidate and
// stop when yield returns false. The function type matches
// iter.Seq[Candidate], so it supports range-over-func directly.
type CandidateSeq = func(yield func(Candidate) bool)

// StreamStats counts candidates through the streaming catalog pipeline:
//
//	generate → pre-filter → cost → frontier
//
// Generated counts every candidate that entered the pipeline; Prefiltered
// the ones discarded by the FLOPs-proxy admission filter before any
// backend evaluation; Costed the ones priced on the backend (so
// Generated == Prefiltered + Costed); Admitted the costed results that
// were non-dominated at the moment they reached the frontier builder
// (later arrivals may still evict them). Materialized counts the
// candidates whose graph was actually built: all of them on a backend
// that is not LayerAdditive, only those without a plan on one that is.
type StreamStats struct {
	Generated    int64 `json:"generated"`
	Prefiltered  int64 `json:"prefiltered"`
	Costed       int64 `json:"costed"`
	Admitted     int64 `json:"admitted"`
	Materialized int64 `json:"materialized"`
}

// Add accumulates other into st.
func (st *StreamStats) Add(other StreamStats) {
	st.Generated += other.Generated
	st.Prefiltered += other.Prefiltered
	st.Costed += other.Costed
	st.Admitted += other.Admitted
	st.Materialized += other.Materialized
}

// PrefilterRate returns Prefiltered/Generated — the fraction of the sweep
// whose backend evaluation the admission filter saved — or 0 before any
// candidate was generated.
func (st StreamStats) PrefilterRate() float64 {
	if st.Generated == 0 {
		return 0
	}
	return float64(st.Prefiltered) / float64(st.Generated)
}

// globalStream accumulates the stats of every completed catalogStream in
// the process, behind the cmd binaries' -stream-stats flag (mirroring how
// SetDefaultCache serves their -cache flag).
var globalStream struct {
	generated, prefiltered, costed, admitted, materialized atomic.Int64
}

// GlobalStreamStats returns the process-wide accumulated stats of every
// streaming catalog built so far.
func GlobalStreamStats() StreamStats {
	return StreamStats{
		Generated:    globalStream.generated.Load(),
		Prefiltered:  globalStream.prefiltered.Load(),
		Costed:       globalStream.costed.Load(),
		Admitted:     globalStream.admitted.Load(),
		Materialized: globalStream.materialized.Load(),
	}
}

func addGlobalStream(st StreamStats) {
	globalStream.generated.Add(st.Generated)
	globalStream.prefiltered.Add(st.Prefiltered)
	globalStream.costed.Add(st.Costed)
	globalStream.admitted.Add(st.Admitted)
	globalStream.materialized.Add(st.Materialized)
}

// DefaultPrefilterMargin is the relative FLOPs slack granted to a
// candidate before the admission filter declares it dominated: a
// candidate is skipped only when a seen candidate matches its accuracy at
// under 1/(1+margin) of its FLOPs. The margin absorbs backend
// non-monotonicity in FLOPs (memory-bound layers make time and energy
// track FLOPs only approximately). 0.4 is conservative for every shipped
// backend — the GPU latency model, the least FLOPs-monotone of them,
// diverges from the FLOPs ordering only below ~0.3 separation on the
// shipped sweeps — keeping streamed catalogs byte-identical to batch ones
// (internal/core's golden tests pin this on every model family) while
// still pruning ~30% of a fine-step SegFormer sweep before costing.
const DefaultPrefilterMargin = 0.4

// FLOPsMonotone is an optional CostBackend marker: a backend implements
// it (returning true) to declare that its cost ordering agrees with the
// analytic FLOPs ordering whenever two graphs' FLOPs differ by more than
// DefaultPrefilterMargin — the assumption the admission pre-filter rests
// on. Every shipped backend (GPU latency, MAGNet time/energy/multi,
// FLOPs proxy) declares it; arbitrary user backends (a cloud billing
// table, a bandwidth-bound latency model) do not, so by default they
// cost every candidate rather than risk silently dropping frontier paths
// on a proxy that does not predict them.
type FLOPsMonotone interface {
	FLOPsMonotone() bool
}

// StageTimings accumulates, per pipeline stage, the total time workers
// (and the generator pump) spent in that stage across one catalog
// build — the hook the serving layer's ?debug=trace uses to attribute a
// build's wall time to generate/prefilter/cost/frontier. The totals are
// summed across concurrent workers, so they can exceed the build's
// wall-clock duration; callers reporting wall-clock spans scale them
// down (serve does). All fields are atomic: workers add concurrently.
//
// Timing is strictly opt-in — a nil *StageTimings in StreamOptions (the
// default) records nothing and costs nothing on the hot path.
type StageTimings struct {
	generateNS  atomic.Int64
	prefilterNS atomic.Int64
	costNS      atomic.Int64
	frontierNS  atomic.Int64
}

// StageDurations is a plain snapshot of StageTimings.
type StageDurations struct {
	Generate  time.Duration `json:"generate"`  // candidate enumeration (generator think-time, send waits excluded)
	Prefilter time.Duration `json:"prefilter"` // graph construction (unless priced from a plan) + FLOPs-proxy admission check
	Cost      time.Duration `json:"cost"`      // backend evaluation (cache hits included)
	Frontier  time.Duration `json:"frontier"`  // path validation + frontier insertion
}

// Durations snapshots the accumulated per-stage totals.
func (t *StageTimings) Durations() StageDurations {
	if t == nil {
		return StageDurations{}
	}
	return StageDurations{
		Generate:  time.Duration(t.generateNS.Load()),
		Prefilter: time.Duration(t.prefilterNS.Load()),
		Cost:      time.Duration(t.costNS.Load()),
		Frontier:  time.Duration(t.frontierNS.Load()),
	}
}

// Total returns the sum across stages.
func (d StageDurations) Total() time.Duration {
	return d.Generate + d.Prefilter + d.Cost + d.Frontier
}

// StreamOptions tunes CatalogFromSeq.
type StreamOptions struct {
	// PrefilterMargin controls the FLOPs-proxy admission pre-filter.
	// Positive enables it with that relative margin; negative disables
	// it entirely (every candidate is costed). Zero — the default —
	// enables it at DefaultPrefilterMargin only for backends declaring
	// FLOPsMonotone, and disables it for all others. Larger margins are
	// safer (skip less), smaller ones prune more aggressively.
	PrefilterMargin float64
	// Timings, when non-nil, accumulates per-stage time totals for this
	// build (see StageTimings). Nil — the default — disables stage
	// timing entirely; no clock reads happen on the pipeline hot path.
	Timings *StageTimings
}

// resolveMargin maps the option to the effective margin for a backend
// (negative = pre-filter disabled).
func (o StreamOptions) resolveMargin(backend CostBackend) float64 {
	if o.PrefilterMargin != 0 {
		return o.PrefilterMargin
	}
	if fm, ok := backend.(FLOPsMonotone); ok && fm.FLOPsMonotone() {
		return DefaultPrefilterMargin
	}
	return -1
}

// catalogStream consumes a candidate stream and reduces it directly to a
// Pareto-frontier RDD catalog:
//
//	generate → pre-filter → cost → frontier
//
// Each worker resolves an arriving candidate — its plan on a LayerAdditive
// backend, its built graph otherwise (see Engine.resolve) — consults the running
// FLOPs/accuracy admission frontier — a candidate whose optimistic
// (FLOPs-proxy cost, accuracy) point is dominated with margin by an
// already-seen candidate is discarded before the expensive backend runs —
// then costs the survivors on the backend and inserts them into the
// frontier builder as they complete. Because the Pareto-optimal subset of
// a point set is order-independent and the final frontier is sorted
// deterministically, the resulting catalog is byte-identical to a
// sequential batch build over the same candidates (the golden tests in
// internal/core prove this per model family), while dominated candidates
// cost no memory and — when the pre-filter catches them — no backend work.
//
// The caller must close in (or cancel ctx) for catalogStream to return.
// On a candidate failure the first error observed wins — completion
// order, not candidate order, decides — and the pipeline shuts down
// early: workers stop pulling and an internal cancel releases them. The producer must watch ctx on its sends (as
// CatalogFromSeq's generator pump does), or it may be left blocked on an
// abandoned channel.
func (e *Engine) catalogStream(ctx context.Context, model string, in <-chan Candidate, opts StreamOptions) (*rdd.Catalog, StreamStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	margin := opts.resolveMargin(e.backend)

	// cctx aborts the workers on the first candidate failure; external
	// cancellation arrives through it too (it descends from ctx).
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		generated, prefiltered, costed, admitted, materialized atomic.Int64

		admissionMu sync.Mutex
		admission   pareto.FrontierBuilder

		frontierMu sync.Mutex
		frontier   pareto.FrontierBuilder

		failed  atomic.Bool
		errOnce sync.Once
		firstEr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstEr = err })
		failed.Store(true)
		cancel()
	}

	// timed gates every clock read: with Timings nil (the default) the
	// pipeline takes no timestamps at all.
	timings := opts.Timings
	timed := timings != nil

	process := func(c Candidate) error {
		generated.Add(1)
		if c.Accuracy < 0 || c.Accuracy > 1 {
			return fmt.Errorf("candidate %q: accuracy %v outside [0,1]", c.Label, c.Accuracy)
		}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		r, err := e.resolve(c)
		if err != nil {
			return err
		}
		if r.g != nil {
			materialized.Add(1)
		}
		if margin >= 0 {
			pt := pareto.Point{Cost: float64(r.macs()) / 1e9, Value: c.Accuracy, Tag: c.Label}
			admissionMu.Lock()
			dominated := admission.DominatedWithMargin(pt, margin)
			if !dominated {
				admission.Insert(pt)
			}
			admissionMu.Unlock()
			if dominated {
				prefiltered.Add(1)
				if timed {
					timings.prefilterNS.Add(time.Since(t0).Nanoseconds())
				}
				return nil
			}
		}
		if timed {
			now := time.Now()
			timings.prefilterNS.Add(now.Sub(t0).Nanoseconds())
			t0 = now
		}
		vals, err := e.price(r)
		if err != nil {
			return fmt.Errorf("candidate %q: %w", c.Label, err)
		}
		cost := vals[0]
		costed.Add(1)
		if timed {
			now := time.Now()
			timings.costNS.Add(now.Sub(t0).Nanoseconds())
			t0 = now
		}
		p := rdd.Path{Label: c.Label, Cost: cost, Accuracy: c.Accuracy}
		if err := rdd.ValidatePath(p); err != nil {
			return err
		}
		frontierMu.Lock()
		ok := frontier.Insert(pareto.Point{Cost: p.Cost, Value: p.Accuracy, Tag: p.Label})
		frontierMu.Unlock()
		if timed {
			timings.frontierNS.Add(time.Since(t0).Nanoseconds())
		}
		if ok {
			admitted.Add(1)
		}
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var c Candidate
				var ok bool
				select {
				case <-cctx.Done():
					return
				case c, ok = <-in:
					if !ok {
						return
					}
				}
				if failed.Load() {
					return
				}
				if err := process(c); err != nil {
					fail(err)
				}
			}
		}()
	}
	wg.Wait()

	st := StreamStats{
		Generated:    generated.Load(),
		Prefiltered:  prefiltered.Load(),
		Costed:       costed.Load(),
		Admitted:     admitted.Load(),
		Materialized: materialized.Load(),
	}
	if failed.Load() {
		return nil, st, firstEr
	}
	// ctx, not cctx: the internal cancel fires on failure (handled above)
	// and on normal return; only external expiry is a context error.
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	cat, err := rdd.NewCatalogFromBuilder(model, &frontier)
	if err != nil {
		return nil, st, err
	}
	addGlobalStream(st)
	return cat, st, nil
}

// CatalogFromSeq runs catalogStream over a candidate generator: the
// generator is pumped into the pipeline from its own goroutine, so
// candidate enumeration overlaps pre-filtering and costing, and stops
// early — at the generator's next yield — when ctx is cancelled or a
// candidate fails.
func (e *Engine) CatalogFromSeq(ctx context.Context, model string, seq CandidateSeq, opts StreamOptions) (*rdd.Catalog, StreamStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// gctx stops the generator once the pipeline bails: on candidate
	// failure catalogStream returns with its workers gone, and cancelling
	// here makes the generator's next yield return false instead of
	// enumerating (and handing off) the rest of the sweep.
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	in := make(chan Candidate)
	go func() {
		defer close(in)
		if opts.Timings == nil {
			seq(func(c Candidate) bool {
				select {
				case in <- c:
					return true
				case <-gctx.Done():
					return false
				}
			})
			return
		}
		// Timed pump: attribute generator think-time (the gap between a
		// send completing and the next candidate arriving at yield) to the
		// generate stage, excluding time blocked handing off to workers.
		last := time.Now()
		seq(func(c Candidate) bool {
			opts.Timings.generateNS.Add(time.Since(last).Nanoseconds())
			select {
			case in <- c:
				last = time.Now()
				return true
			case <-gctx.Done():
				return false
			}
		})
	}()
	cat, st, err := e.catalogStream(gctx, model, in, opts)
	if err != nil {
		cancel()
		// Release the generator goroutine (it observes gctx at its next
		// blocked send) and drain whatever it already emitted.
		for range in {
		}
	}
	return cat, st, err
}
