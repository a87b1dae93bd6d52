package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vitdyn/internal/graph"
	"vitdyn/internal/magnet"
	"vitdyn/internal/rdd"
)

// linearGraph returns a tiny graph whose signature is determined by n, so
// tests can mint arbitrary families of distinct (or shared) shapes.
func linearGraph(n int) *graph.Graph {
	g := &graph.Graph{Name: fmt.Sprintf("toy-%d", n), InputH: 8, InputW: 8}
	g.Add(graph.Layer{
		Name: "fc", Kind: graph.Linear,
		Tokens: 4, InF: n, OutF: 2 * n,
	})
	return g
}

// countingBackend counts Cost invocations; cost is a pure function of
// the graph's single layer width, so results are reproducible.
type countingBackend struct {
	calls atomic.Int64
}

func (b *countingBackend) Name() string { return "counting" }

func (b *countingBackend) Cost(g *graph.Graph) (float64, error) {
	b.calls.Add(1)
	return float64(g.Layers[0].InF), nil
}

// failingBackend fails on one specific width.
type failingBackend struct {
	failInF int
}

func (b failingBackend) Name() string { return "failing" }

func (b failingBackend) Cost(g *graph.Graph) (float64, error) {
	if g.Layers[0].InF == b.failInF {
		return 0, fmt.Errorf("backend rejected width %d", b.failInF)
	}
	return float64(g.Layers[0].InF), nil
}

func toyCandidates(n int, width func(i int) int) []Candidate {
	cands := make([]Candidate, n)
	for i := 0; i < n; i++ {
		i := i
		cands[i] = Candidate{
			Label:    fmt.Sprintf("cand-%03d", i),
			Accuracy: float64(i) / float64(n),
			Build:    func() (*graph.Graph, error) { return linearGraph(width(i)), nil },
		}
	}
	return cands
}

// sequentialCatalog is the reference catalog construction: one
// goroutine, one backend call per candidate in input order, no cache,
// then the batch Pareto reduction.
func sequentialCatalog(t *testing.T, backend CostBackend, model string, cands []Candidate) *rdd.Catalog {
	t.Helper()
	paths := make([]rdd.Path, len(cands))
	for i, c := range cands {
		g, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		cost, err := backend.Cost(g)
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = rdd.Path{Label: c.Label, Cost: cost, Accuracy: c.Accuracy}
	}
	cat, err := rdd.NewCatalog(model, paths)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// catalogOf builds the catalog of cands on e with default options.
func catalogOf(e *Engine, cands []Candidate) (*rdd.Catalog, StreamStats, error) {
	return e.CatalogFromSeq(context.Background(), "toy", seqOf(cands), StreamOptions{})
}

func TestSweepDeterministicOrder(t *testing.T) {
	backend := &countingBackend{}
	cands := toyCandidates(64, func(i int) int { return i + 1 })
	want := sequentialCatalog(t, backend, "toy", cands)
	if len(want.Paths) != 64 {
		t.Fatalf("reference frontier has %d paths, want all 64", len(want.Paths))
	}
	for _, workers := range []int{1, 2, 8, 0} {
		got, _, err := catalogOf(New(backend, workers), cands)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: parallel catalog diverged from sequential reference", workers)
		}
	}
	for i, p := range want.Paths {
		if want := fmt.Sprintf("cand-%03d", i); p.Label != want {
			t.Fatalf("path %d has label %s, want %s", i, p.Label, want)
		}
	}
}

func TestSweepMemoizesSharedGraphs(t *testing.T) {
	backend := &countingBackend{}
	// 64 candidates collapsing onto 8 distinct shapes.
	cands := toyCandidates(64, func(i int) int { return 10 + i%8 })
	e := New(backend, 8)
	cat, st, err := catalogOf(e, cands)
	if err != nil {
		t.Fatal(err)
	}
	if st.Costed != 64 {
		t.Errorf("costed %d candidates, want all 64", st.Costed)
	}
	if got := backend.calls.Load(); got != 8 {
		t.Errorf("backend invoked %d times, want 8 (one per distinct signature)", got)
	}
	if e.CachedCosts() != 8 {
		t.Errorf("cache holds %d entries, want 8", e.CachedCosts())
	}
	// The frontier is the most accurate candidate of each shape,
	// cand-056..063, at costs 10..17.
	if len(cat.Paths) != 8 {
		t.Fatalf("frontier has %d paths, want 8", len(cat.Paths))
	}
	for k, p := range cat.Paths {
		if label, cost := fmt.Sprintf("cand-%03d", 56+k), float64(10+k); p.Label != label || p.Cost != cost {
			t.Errorf("path %d = {%s %v}, want {%s %v}", k, p.Label, p.Cost, label, cost)
		}
	}
	// A second build on the same engine is served entirely from cache.
	if _, _, err := catalogOf(e, cands); err != nil {
		t.Fatal(err)
	}
	if got := backend.calls.Load(); got != 8 {
		t.Errorf("second build invoked the backend (total %d calls)", got)
	}
}

func TestCostCacheUnderContention(t *testing.T) {
	// Hammer one engine from many goroutines over a small set of shared
	// graphs; the backend must run once per distinct signature and every
	// caller must observe the same cost.
	backend := &countingBackend{}
	e := New(backend, 0)
	const goroutines, iters, distinct = 32, 200, 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for w := 0; w < goroutines; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := 100 + (w+i)%distinct
				cost, err := e.Cost(linearGraph(n))
				if err != nil {
					errs[w] = err
					return
				}
				if cost != float64(n) {
					errs[w] = fmt.Errorf("cost(%d) = %v", n, cost)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := backend.calls.Load(); got != distinct {
		t.Errorf("backend invoked %d times under contention, want %d", got, distinct)
	}
}

func TestCatalogFrontier(t *testing.T) {
	// Costs grow with index while accuracies shrink, so only the first
	// candidate is non-dominated.
	cands := make([]Candidate, 4)
	for i := range cands {
		i := i
		cands[i] = Candidate{
			Label:    fmt.Sprintf("p%d", i),
			Accuracy: 0.9 - 0.1*float64(i),
			Build:    func() (*graph.Graph, error) { return linearGraph(10 + i), nil },
		}
	}
	cat, _, err := catalogOf(New(&countingBackend{}, 2), cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Paths) != 1 || cat.Paths[0].Label != "p0" {
		t.Fatalf("frontier = %+v, want the single non-dominated p0", cat.Paths)
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 100} {
		out := make([]int, 50)
		if err := ForEach(workers, len(out), func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	// n = 0 is a no-op.
	if err := ForEach(4, 0, func(int) error { return errors.New("boom") }); err != nil {
		t.Errorf("ForEach over zero items returned %v", err)
	}
	// Lowest-index error wins.
	err := ForEach(8, 20, func(i int) error {
		if i == 7 || i == 13 {
			return fmt.Errorf("fail-%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail-7" {
		t.Errorf("ForEach error = %v, want fail-7", err)
	}
}

func TestBackendNames(t *testing.T) {
	if FLOPs().Name() != "flops-proxy" {
		t.Errorf("FLOPs backend name = %q", FLOPs().Name())
	}
	cost, err := FLOPs().Cost(linearGraph(1000))
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(4*1000*2000) / 1e9; cost != want {
		t.Errorf("FLOPs cost = %v, want %v (GMACs)", cost, want)
	}
}

func TestNilBackendIsAnErrorNotAPanic(t *testing.T) {
	cands := toyCandidates(4, func(i int) int { return i + 1 })
	for _, workers := range []int{1, 4} {
		_, _, err := catalogOf(New(nil, workers), cands)
		if err == nil || !strings.Contains(err.Error(), "nil CostBackend") {
			t.Errorf("workers=%d: nil backend build returned %v, want nil-CostBackend error", workers, err)
		}
	}
	if _, err := New(nil, 1).Cost(linearGraph(3)); err == nil {
		t.Error("nil backend Cost succeeded")
	}
}

func TestWorkersResolution(t *testing.T) {
	if New(FLOPs(), -3).Workers() < 1 {
		t.Error("negative workers not resolved to GOMAXPROCS")
	}
	if got := New(FLOPs(), 7).Workers(); got != 7 {
		t.Errorf("workers = %d, want 7", got)
	}
	if New(FLOPs(), 7).Backend().Name() != "flops-proxy" {
		t.Error("backend accessor broken")
	}
}

// mapCache is a minimal CostCache: one flat map under a mutex, no
// eviction, single-flight per key via a per-entry once.
type mapCache struct {
	mu      sync.Mutex
	entries map[string]*mapCacheEntry
}

type mapCacheEntry struct {
	once sync.Once
	vals []float64
	err  error
}

func newMapCache() *mapCache { return &mapCache{entries: map[string]*mapCacheEntry{}} }

func (c *mapCache) GetOrComputeVector(backend string, epoch, sig uint64, compute func() ([]float64, error)) ([]float64, error) {
	key := fmt.Sprintf("%s#%x#%x", backend, epoch, sig)
	c.mu.Lock()
	ent, ok := c.entries[key]
	if !ok {
		ent = &mapCacheEntry{}
		c.entries[key] = ent
	}
	c.mu.Unlock()
	ent.once.Do(func() { ent.vals, ent.err = compute() })
	return ent.vals, ent.err
}

func TestExternalCacheSharedAcrossEngines(t *testing.T) {
	// Two engines over the same backend and cache: the second build is
	// served entirely from the shared store.
	backend := &countingBackend{}
	cache := newMapCache()
	cands := toyCandidates(32, func(i int) int { return 10 + i%8 })
	e1 := NewWithCache(backend, 4, cache)
	first, _, err := catalogOf(e1, cands)
	if err != nil {
		t.Fatal(err)
	}
	if got := backend.calls.Load(); got != 8 {
		t.Fatalf("cold build invoked backend %d times, want 8", got)
	}
	if e1.CachedCosts() != 0 {
		t.Errorf("private cache holds %d entries despite external store", e1.CachedCosts())
	}
	e2 := NewWithCache(backend, 4, cache)
	second, _, err := catalogOf(e2, cands)
	if err != nil {
		t.Fatal(err)
	}
	if got := backend.calls.Load(); got != 8 {
		t.Errorf("warm build on a fresh engine invoked the backend (total %d calls)", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("shared-cache catalog diverged from the cold build")
	}
}

func TestDefaultCacheAdoptedByNew(t *testing.T) {
	cache := newMapCache()
	SetDefaultCache(cache)
	defer SetDefaultCache(nil)
	backend := &countingBackend{}
	if _, err := New(backend, 2).Cost(linearGraph(42)); err != nil {
		t.Fatal(err)
	}
	if _, err := New(backend, 2).Cost(linearGraph(42)); err != nil {
		t.Fatal(err)
	}
	if got := backend.calls.Load(); got != 1 {
		t.Errorf("backend invoked %d times across two default-cached engines, want 1", got)
	}
	SetDefaultCache(nil)
	if _, err := New(backend, 2).Cost(linearGraph(42)); err != nil {
		t.Fatal(err)
	}
	if got := backend.calls.Load(); got != 2 {
		t.Errorf("engine created after SetDefaultCache(nil) still shared the store (%d calls)", got)
	}
}

// countingMultiBackend returns [width, 2*width] per evaluation.
type countingMultiBackend struct {
	calls atomic.Int64
}

func (b *countingMultiBackend) Name() string      { return "counting-multi" }
func (b *countingMultiBackend) Metrics() []string { return []string{"a", "b"} }

func (b *countingMultiBackend) CostVector(g *graph.Graph) ([]float64, error) {
	b.calls.Add(1)
	w := float64(g.Layers[0].InF)
	return []float64{w, 2 * w}, nil
}

func (b *countingMultiBackend) Cost(g *graph.Graph) (float64, error) {
	v, err := b.CostVector(g)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

func TestMultiCostBackendSharesOneEvaluation(t *testing.T) {
	backend := &countingMultiBackend{}
	e := New(backend, 2)
	vec, err := e.CostVector(linearGraph(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vec, []float64{7, 14}) {
		t.Fatalf("CostVector = %v, want [7 14]", vec)
	}
	// Cost on the same shape reuses the vector evaluation.
	c, err := e.Cost(linearGraph(7))
	if err != nil {
		t.Fatal(err)
	}
	if c != 7 {
		t.Errorf("Cost = %v, want first metric 7", c)
	}
	if got := backend.calls.Load(); got != 1 {
		t.Errorf("backend evaluated %d times for both metrics, want 1", got)
	}
	// The returned vector is a private copy.
	vec[0] = -1
	again, err := e.CostVector(linearGraph(7))
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != 7 {
		t.Error("mutating a returned CostVector corrupted the cache")
	}
}

// emptyVectorBackend is a misbehaving MultiCostBackend returning a
// zero-length vector with no error.
type emptyVectorBackend struct{}

func (emptyVectorBackend) Name() string                               { return "empty" }
func (emptyVectorBackend) Metrics() []string                          { return nil }
func (emptyVectorBackend) CostVector(*graph.Graph) ([]float64, error) { return nil, nil }
func (emptyVectorBackend) Cost(*graph.Graph) (float64, error)         { return 0, nil }

func TestEmptyCostVectorIsAnErrorNotAPanic(t *testing.T) {
	e := New(emptyVectorBackend{}, 1)
	if _, err := e.Cost(linearGraph(3)); err == nil || !strings.Contains(err.Error(), "empty cost vector") {
		t.Errorf("Cost on empty-vector backend = %v, want empty-cost-vector error", err)
	}
	if _, err := e.CostVector(linearGraph(3)); err == nil {
		t.Error("CostVector on empty-vector backend succeeded")
	}
}

func TestCostVectorOnScalarBackend(t *testing.T) {
	e := New(&countingBackend{}, 1)
	vec, err := e.CostVector(linearGraph(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vec, []float64{5}) {
		t.Errorf("CostVector on scalar backend = %v, want [5]", vec)
	}
}

func TestMagnetTimeEnergyMatchesScalarBackends(t *testing.T) {
	// The vector backend must agree exactly with the two scalar MAGNet
	// backends it replaces.
	g := &graph.Graph{Name: "conv-toy", InputH: 16, InputW: 16}
	g.Add(graph.Layer{
		Name: "conv", Kind: graph.Conv2D,
		InC: 8, OutC: 16, KH: 3, KW: 3, SH: 1, SW: 1,
		InH: 16, InW: 16, OutH: 16, OutW: 16, Groups: 1,
	})
	cfg := magnet.AcceleratorE()
	multi := MagnetTimeEnergy(cfg)
	if want := "magnet-multi/" + cfg.Name; multi.Name() != want {
		t.Errorf("name = %q, want %q", multi.Name(), want)
	}
	vec, err := multi.CostVector(g)
	if err != nil {
		t.Fatal(err)
	}
	tms, err := MagnetTime(cfg).Cost(g)
	if err != nil {
		t.Fatal(err)
	}
	emj, err := MagnetEnergy(cfg).Cost(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 2 || vec[0] != tms || vec[1] != emj {
		t.Errorf("CostVector = %v, want [%v %v]", vec, tms, emj)
	}
	if c, _ := multi.Cost(g); c != tms {
		t.Errorf("Cost = %v, want time metric %v", c, tms)
	}
}

func TestForEachCtxCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForEachCtx(ctx, workers, 1000, func(i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Errorf("workers=%d: all %d indices ran despite cancellation", workers, n)
		}
	}
	// A job error observed before cancellation wins (deterministic).
	ctx, cancel := context.WithCancel(context.Background())
	err := ForEachCtx(ctx, 4, 100, func(i int) error {
		if i == 3 {
			cancel()
			return fmt.Errorf("boom-3")
		}
		return nil
	})
	cancel()
	if err == nil || err.Error() != "boom-3" {
		t.Errorf("err = %v, want boom-3 over context.Canceled", err)
	}
}
