// Package engine is the concurrent sweep engine behind every RDD path
// catalog: it streams candidates through a bounded worker pool that builds
// or plans and costs them, memoizes repeated graph costs behind a
// signature-keyed cache, and reduces the results into a Pareto frontier
// whose order does not depend on arrival order, so parallel catalogs are
// byte-identical to a sequential construction (see stream.go).
//
// The execution substrate is abstracted behind CostBackend (see
// backends.go for the GPU, MAGNet-time, MAGNet-energy, MAGNet-multi and
// FLOPs-proxy implementations), replacing the closed Target struct that
// used to live in internal/core. Anything that can price a graph — a
// latency model, an accelerator simulation, a cloud billing table — can
// drive a sweep.
//
// Memoization has two tiers. Every engine owns a private in-process cache
// keyed by graph signature (a bounded lru.Cache); in addition a CostCache
// (canonically serve.Store) can be injected with NewWithCache — or installed
// process-wide with SetDefaultCache — so many engines across many
// requests share one eviction-managed cost store.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"vitdyn/internal/graph"
	"vitdyn/internal/lru"
)

// DefaultMemoCapacity bounds the in-process cost memos — an engine's
// private cache, costdb's standalone fast tier, and serve.Store's
// default. The largest sweep this repository ships (a channelStep-64
// SegFormer sweep) costs about 2k distinct signatures, so 16384 leaves
// room for several backends while one entry is only a key and a couple
// of floats.
const DefaultMemoCapacity = 16384

// CostBackend prices one inference of a model graph on some execution
// substrate. Implementations must be safe for concurrent use: Cost is
// called from many worker goroutines at once. Cost must be a pure
// function of the graph's cost-relevant shape (see graph.Signature), as
// the engine memoizes results across shape-identical graphs.
type CostBackend interface {
	// Cost returns the execution cost of one inference (milliseconds or
	// millijoules, backend-dependent; always positive for valid graphs).
	Cost(g *graph.Graph) (float64, error)
	// Name identifies the substrate, e.g. "gpu/NVIDIA RTX A5000".
	Name() string
}

// MultiCostBackend prices several metrics of one inference from a single
// evaluation — e.g. MAGNet time AND energy from one simulation pass,
// halving accelerator work for experiments that need both axes. Cost
// returns the first metric, so a MultiCostBackend drops into any
// single-metric sweep unchanged.
type MultiCostBackend interface {
	CostBackend
	// Metrics names the vector components in order, e.g.
	// ["time_ms", "energy_mj"]. The slice is constant per backend.
	Metrics() []string
	// CostVector returns one value per metric, in Metrics() order.
	CostVector(g *graph.Graph) ([]float64, error)
}

// CostCache is an externally owned memoization layer shared across
// engines (and, through the serving layer, across requests). Keys are
// (backend name, backend epoch, graph signature); values are full
// metric vectors, so single- and multi-metric backends share one entry
// per shape. The epoch (see BackendEpoch) partitions entries by
// cost-model version: a backend upgrade flips it, so stale costs miss
// instead of being served. Implementations must be safe for concurrent
// use and must invoke compute at most once per key while it stays
// resident.
type CostCache interface {
	GetOrComputeVector(backend string, epoch, sig uint64, compute func() ([]float64, error)) ([]float64, error)
}

// defaultCache is the process-wide cache installed by SetDefaultCache,
// picked up by New (but not NewWithCache, which is explicit).
var defaultCache atomic.Pointer[cacheBox]

type cacheBox struct{ c CostCache }

// SetDefaultCache installs (or, with nil, removes) a process-wide
// CostCache adopted by every engine subsequently created with New. It
// exists for the cmd binaries' -cache flag, which shares one store
// across an entire -exp all run; servers should prefer the explicit
// NewWithCache.
func SetDefaultCache(c CostCache) {
	defaultCache.Store(&cacheBox{c: c})
}

func currentDefaultCache() CostCache {
	if box := defaultCache.Load(); box != nil {
		return box.c
	}
	return nil
}

// backendEvals counts actual CostBackend evaluations process-wide — the
// work every cache tier above exists to avoid. Each increment is one
// graph truly priced on a backend (memo hits at any tier do not count).
var backendEvals atomic.Int64

// BackendEvals returns the cumulative number of backend cost
// evaluations this process has performed. It is the observability hook
// behind the persistence tests ("a warm-booted store serves this
// catalog with zero backend evaluations") and is monotone: take deltas
// around the work being measured.
func BackendEvals() int64 { return backendEvals.Load() }

// Candidate is one execution path to be swept: a label, a known accuracy,
// and a constructor for the graph to be costed. Build runs on a worker
// goroutine and must not share mutable state with other candidates.
//
// A candidate may also carry Plan, the same path as a plan over its
// model's template, whose Graph() is what Build returns. On a
// LayerAdditive backend the engine then reads the candidate's MACs and
// signature from the plan and sums its cost positionally, never calling
// Build; every other backend builds the graph.
type Candidate struct {
	Label    string
	Accuracy float64
	Build    func() (*graph.Graph, error)
	Plan     *graph.Plan
}

// PlanCandidate returns the candidate for a plan: priced from the plan on
// LayerAdditive backends, from plan.Graph() on all others.
func PlanCandidate(label string, accuracy float64, plan *graph.Plan) Candidate {
	return Candidate{
		Label:    label,
		Accuracy: accuracy,
		Build:    func() (*graph.Graph, error) { return plan.Graph(), nil },
		Plan:     plan,
	}
}

// Engine sweeps candidate sets over one backend with a bounded worker
// pool and a shared cost cache. An Engine is safe for concurrent use; the
// zero value is not valid — use New.
type Engine struct {
	backend CostBackend
	name    string // backend.Name(), resolved once: names may be built per call
	workers int
	// additive is the backend when it is LayerAdditive, width the length
	// of its cost vector and vectorID its identity in layerVectors.
	additive LayerAdditive
	width    int
	vectorID string
	epoch    uint64                        // backend epoch stamped at construction (see BackendEpoch)
	ext      CostCache                     // nil = private in-process cache only
	cache    *lru.Cache[uint64, []float64] // private cache, keyed by signature; nil with ext
}

// New returns an engine over the backend. workers <= 0 selects
// GOMAXPROCS; workers == 1 degenerates to a sequential sweep (same code
// path, same results). If a process-wide cache was installed with
// SetDefaultCache, the engine adopts it.
func New(backend CostBackend, workers int) *Engine {
	return NewWithCache(backend, workers, currentDefaultCache())
}

// NewWithCache returns an engine whose costs are memoized in the given
// external cache (keyed by backend name and graph signature) instead of
// a private cache, so repeated or overlapping sweeps across many engines —
// e.g. concurrent server requests — share one store. A nil cache falls
// back to a private per-engine cache of DefaultMemoCapacity entries.
func NewWithCache(backend CostBackend, workers int, cache CostCache) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if backend == nil {
		// Surface the misconfiguration as an ordinary sweep error instead
		// of a nil-interface panic inside a worker goroutine.
		backend = nilBackend{}
	}
	e := &Engine{backend: backend, name: backend.Name(), workers: workers, epoch: BackendEpoch(backend), ext: cache, width: 1}
	if la, ok := backend.(LayerAdditive); ok {
		e.additive, e.vectorID = la, fmt.Sprintf("%#v", backend)
		if mb, ok := backend.(MultiCostBackend); ok {
			e.width = len(mb.Metrics())
		}
	}
	if cache == nil {
		// Signatures are already hashes: shard on them directly.
		e.cache = lru.New[uint64, []float64](DefaultMemoCapacity, func(sig uint64) uint64 { return sig })
	}
	return e
}

// nilBackend stands in for a nil CostBackend passed to New.
type nilBackend struct{}

func (nilBackend) Name() string { return "nil" }

func (nilBackend) Cost(*graph.Graph) (float64, error) {
	return 0, fmt.Errorf("engine: nil CostBackend")
}

// Backend returns the engine's cost backend.
func (e *Engine) Backend() CostBackend { return e.backend }

// Workers returns the resolved worker count.
func (e *Engine) Workers() int { return e.workers }

// Epoch returns the backend epoch the engine stamped at construction —
// the fingerprint partitioning its external-cache entries.
func (e *Engine) Epoch() uint64 { return e.epoch }

// CachedCosts returns how many distinct graph signatures the engine's
// private cache holds (for tests and instrumentation). With an external
// CostCache the private cache is bypassed and this stays 0 — the store's
// own stats are authoritative there.
func (e *Engine) CachedCosts() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.Len()
}

// compute prices g on the backend, as a vector: MultiCostBackends run
// one evaluation for all metrics, plain backends yield a 1-vector. The
// result is guaranteed non-empty on success, so Cost can take the first
// component unconditionally.
func (e *Engine) compute(g *graph.Graph) ([]float64, error) {
	backendEvals.Add(1)
	if mb, ok := e.backend.(MultiCostBackend); ok {
		vals, err := mb.CostVector(g)
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("engine: backend %q returned an empty cost vector", e.backend.Name())
		}
		return vals, nil
	}
	c, err := e.backend.Cost(g)
	if err != nil {
		return nil, err
	}
	return []float64{c}, nil
}

// memo looks a graph signature up in whichever memo layer the engine
// owns, running compute on a miss. The returned slice is shared with the
// cache and must not be mutated.
func (e *Engine) memo(sig uint64, compute func() ([]float64, error)) ([]float64, error) {
	if e.ext != nil {
		return e.ext.GetOrComputeVector(e.name, e.epoch, sig, compute)
	}
	return e.cache.GetOrCompute(sig, nil, compute)
}

// costVec prices one graph through the memo.
func (e *Engine) costVec(g *graph.Graph) ([]float64, error) {
	return e.memo(g.Signature(), func() ([]float64, error) { return e.compute(g) })
}

// resolved is one candidate made ready for pricing: its plan when the
// backend sums plans positionally, its built graph otherwise.
type resolved struct {
	plan *graph.Plan
	g    *graph.Graph
}

// resolve readies c for pricing, building its graph only when the
// backend cannot price its plan.
func (e *Engine) resolve(c Candidate) (resolved, error) {
	if e.additive != nil && c.Plan != nil {
		return resolved{plan: c.Plan}, nil
	}
	g, err := c.Build()
	if err != nil {
		return resolved{}, fmt.Errorf("candidate %q: %w", c.Label, err)
	}
	return resolved{g: g}, nil
}

// macs returns the candidate's MACs, the admission pre-filter's proxy.
func (r resolved) macs() int64 {
	if r.plan != nil {
		return r.plan.MACs()
	}
	return r.g.TotalMACs()
}

// price costs one resolved candidate through the memo: a plan is keyed by
// the signature of the graph it stands for and, on a miss, summed
// positionally; a graph goes through the whole-graph backend path. Either
// way a miss is one backend evaluation. The returned slice is shared
// with the cache and must not be mutated.
func (e *Engine) price(r resolved) ([]float64, error) {
	if r.plan == nil {
		return e.costVec(r.g)
	}
	return e.memo(r.plan.Signature(), func() ([]float64, error) {
		backendEvals.Add(1)
		return e.positional(r.plan)
	})
}

// positional prices plan p from its template's addend vector.
func (e *Engine) positional(p *graph.Plan) ([]float64, error) {
	vec, err := e.layerVector(p.Template())
	if err != nil {
		return nil, err
	}
	buf := make([]float64, 2*e.width)
	if err := e.sumPlan(p, vec, buf[:e.width], buf[e.width:]); err != nil {
		return nil, err
	}
	return buf[:e.width:e.width], nil
}

// vectorKey identifies one template's per-position addends on one
// backend cost model. backend is the backend's full value (see
// NewWithCache), not just its name: two differently configured backends
// that share a name — an invalid accelerator configuration labelled like
// a valid one — must not share addends.
type vectorKey struct {
	backend  string
	epoch    uint64
	template uint64
}

// layerVectors caches per-position addend vectors, built on first use.
// One entry is a few KB, and a process sees a handful of templates per
// backend.
var layerVectors = sync.OnceValue(func() *lru.Cache[vectorKey, []float64] {
	return lru.New[vectorKey, []float64](256, func(k vectorKey) uint64 {
		return lru.HashUint64(lru.HashUint64(lru.HashString(lru.HashSeed, k.backend), k.epoch), k.template)
	})
})

// layerVector returns the addends of every layer of t on the engine's
// backend: width values per position, in layer order.
func (e *Engine) layerVector(t *graph.Template) ([]float64, error) {
	key := vectorKey{backend: e.vectorID, epoch: e.epoch, template: t.ID()}
	return layerVectors().GetOrCompute(key, nil, func() ([]float64, error) {
		vec := make([]float64, t.Len()*e.width)
		for i := 0; i < t.Len(); i++ {
			if err := e.additive.LayerCost(t.Layer(i), vec[i*e.width:(i+1)*e.width]); err != nil {
				return nil, err
			}
		}
		return vec, nil
	})
}

// sumPlan prices plan p from its template's addend vector vec: sums gets
// the addends of every layer p keeps, patched layers priced on their own
// (into scratch), accumulated in layer order per metric and then scaled —
// the same additions, in the same order, the backend makes over the
// materialised graph. sums and scratch have the backend's width.
func (e *Engine) sumPlan(p *graph.Plan, vec, sums, scratch []float64) error {
	w := e.width
	clear(sums)
	for i := 0; i < p.Runs(); i++ {
		start, end, patched := p.Run(i)
		if patched != nil {
			if err := e.additive.LayerCost(patched, scratch); err != nil {
				return err
			}
			for m := range sums {
				sums[m] += scratch[m]
			}
			continue
		}
		if w == 1 {
			s := sums[0]
			for _, v := range vec[start:end] {
				s += v
			}
			sums[0] = s
			continue
		}
		for pos := start; pos < end; pos++ {
			for m := range sums {
				sums[m] += vec[pos*w+m]
			}
		}
	}
	e.additive.ScaleCost(sums)
	return nil
}

// Cost prices one graph through the memo cache. For a MultiCostBackend
// this evaluates (and caches) the full metric vector and returns its
// first component.
func (e *Engine) Cost(g *graph.Graph) (float64, error) {
	vals, err := e.costVec(g)
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// CostVector prices one graph through the memo cache and returns every
// metric the backend produces — a fresh copy the caller may keep. Plain
// single-metric backends yield a 1-vector.
func (e *Engine) CostVector(g *graph.Graph) ([]float64, error) {
	vals, err := e.costVec(g)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(vals))
	copy(out, vals)
	return out, nil
}

// ForEach runs fn(0..n-1) across a bounded pool of workers and returns
// the error of the lowest failing index (so callers see the same error a
// sequential loop would report first); indices not yet dispatched when a
// failure is observed are skipped. workers <= 0 selects GOMAXPROCS.
// fn must confine its writes to index-i slots of preallocated slices (or
// otherwise synchronize); ForEach itself guarantees all writes made by fn
// happen-before it returns.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), workers, n, fn)
}

// ForEachCtx is ForEach under a context: once ctx is cancelled or times
// out, no further indices are dispatched and the context error is
// returned — unless some dispatched fn also failed, in which case the
// lowest failing index's error wins, keeping error reporting
// deterministic. fn is not interrupted mid-call; cancellation is
// index-granular.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return nil
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	jobs := make(chan int)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	// Stop dispatching once any job fails: undispatched jobs all have
	// higher indices than every dispatched one, so the lowest failing
	// index — the error a sequential loop would hit first — is already
	// in flight and the deterministic error choice below is unaffected.
	done := ctx.Done()
	cancelled := false
dispatch:
	for i := 0; i < n && !failed.Load(); i++ {
		// Check cancellation before the select: with both channels ready
		// the select picks randomly, so an already-expired context could
		// otherwise keep dispatching (and, rarely, dispatch everything).
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		select {
		case jobs <- i:
		case <-done:
			cancelled = true
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if cancelled {
		return ctx.Err()
	}
	return nil
}
