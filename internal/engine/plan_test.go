package engine_test

import (
	"context"
	"math"
	"strconv"
	"testing"

	"vitdyn/internal/core"
	"vitdyn/internal/engine"
	"vitdyn/internal/graph"
	"vitdyn/internal/magnet"
	"vitdyn/internal/serve"
)

// planFamilies lists every pruning catalog whose candidates carry plans,
// at its default step and three steps inside the benchmark's ranges
// (SegFormer 768-1023, Swin 256-511).
func planFamilies(t *testing.T) map[string]engine.CandidateSeq {
	t.Helper()
	out := map[string]engine.CandidateSeq{}
	add := func(model string, seq engine.CandidateSeq, err error, step int) {
		if err != nil {
			t.Fatal(err)
		}
		out[model+"/step"+strconv.Itoa(step)] = seq
	}
	for _, ds := range []string{"ADE", "City"} {
		for _, step := range []int{0, 768, 900, 1023} {
			model, seq, err := core.Spec{Family: "segformer", Dataset: ds, Step: step}.Seq()
			add(model, seq, err, step)
		}
	}
	for _, v := range []string{"Tiny", "Small", "Base"} {
		for _, step := range []int{0, 256, 384, 511} {
			model, seq, err := core.Spec{Family: "swin", Variant: v, Step: step}.Seq()
			add(model, seq, err, step)
		}
	}
	return out
}

// TestPlanPricingMatchesWholeGraph is the positional path's property
// test: for every candidate of every plan-carrying family, on every
// published backend (and the multi-metric MAGNet backend), the plan's
// MACs, signature and positional cost vector are bit-identical to those
// of its materialised graph priced whole by the backend.
func TestPlanPricingMatchesWholeGraph(t *testing.T) {
	var backends []engine.CostBackend
	for _, info := range serve.Backends() {
		b, err := serve.ResolveBackend(info.Spec)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
	}
	backends = append(backends, engine.MagnetTimeEnergy(magnet.AcceleratorE()))
	engines := make([]*engine.Engine, len(backends))
	for i, b := range backends {
		if _, ok := b.(engine.LayerAdditive); !ok {
			t.Fatalf("backend %s is not LayerAdditive", b.Name())
		}
		engines[i] = engine.NewWithCache(b, 1, nil)
	}
	checked := 0
	for name, seq := range planFamilies(t) {
		for c := range seq {
			if c.Plan == nil {
				t.Fatalf("%s/%s: candidate carries no plan", name, c.Label)
			}
			g, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			p := c.Plan
			if p.MACs() != g.TotalMACs() || p.Signature() != g.Signature() || p.Len() != len(g.Layers) {
				t.Fatalf("%s/%s: plan MACs/signature/len %d/%#x/%d, graph %d/%#x/%d", name, c.Label,
					p.MACs(), p.Signature(), p.Len(), g.TotalMACs(), g.Signature(), len(g.Layers))
			}
			for i, b := range backends {
				want := wholeGraphVector(t, b, g)
				got, err := engines[i].PlanVector(p)
				if err != nil {
					t.Fatal(err)
				}
				if !bitIdentical(want, got) {
					t.Fatalf("%s/%s on %s: positional %v, whole graph %v", name, c.Label, b.Name(), got, want)
				}
			}
			checked++
		}
	}
	if checked < 1000 {
		t.Fatalf("checked only %d candidates", checked)
	}
}

func wholeGraphVector(t *testing.T, b engine.CostBackend, g *graph.Graph) []float64 {
	t.Helper()
	if mb, ok := b.(engine.MultiCostBackend); ok {
		v, err := mb.CostVector(g)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	c, err := b.Cost(g)
	if err != nil {
		t.Fatal(err)
	}
	return []float64{c}
}

func bitIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// unmarked wraps a backend without forwarding LayerAdditive, the way a
// user's instrumented backend would.
type unmarked struct{ engine.CostBackend }

func (u unmarked) FLOPsMonotone() bool { return true }

// TestPlanCandidatesMaterializeOnlyWithoutTheMarker: a GPU SegFormer
// build prices every candidate from its plan and builds no graph; the
// same build through a backend without the LayerAdditive marker builds
// every candidate's graph — and both produce the same catalog.
func TestPlanCandidatesMaterializeOnlyWithoutTheMarker(t *testing.T) {
	ctx := context.Background()
	spec := core.Spec{Family: "segformer", Dataset: "ADE", Step: 512}
	cat, st, err := core.Catalog(ctx, spec, core.TargetGPU(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generated == 0 || st.Materialized != 0 {
		t.Errorf("GPU build: %+v, want candidates generated and none materialized", st)
	}
	wcat, wst, err := core.Catalog(ctx, spec, unmarked{core.TargetGPU()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wst.Materialized != wst.Generated || wst.Generated != st.Generated {
		t.Errorf("unmarked build: %+v, want materialized == generated == %d", wst, st.Generated)
	}
	if len(cat.Paths) != len(wcat.Paths) {
		t.Fatalf("frontiers differ: %d vs %d paths", len(cat.Paths), len(wcat.Paths))
	}
	for i := range cat.Paths {
		if cat.Paths[i] != wcat.Paths[i] {
			t.Errorf("path %d: %+v vs %+v", i, cat.Paths[i], wcat.Paths[i])
		}
	}
}

// TestPlanPricingFailsLikeWholeGraph: a backend that cannot price any
// graph (an invalid accelerator configuration) fails a plan candidate
// with exactly the error the whole-graph path reports.
func TestPlanPricingFailsLikeWholeGraph(t *testing.T) {
	bad := magnet.AcceleratorE()
	bad.NumPE = 0
	spec := core.Spec{Family: "segformer", Dataset: "ADE", Step: 512}
	_, _, err := core.Catalog(context.Background(), spec, engine.MagnetTime(bad), 1)
	_, _, werr := core.Catalog(context.Background(), spec, unmarked{engine.MagnetTime(bad)}, 1)
	if err == nil || werr == nil || err.Error() != werr.Error() {
		t.Errorf("plan path error %v, whole-graph path error %v", err, werr)
	}
}
