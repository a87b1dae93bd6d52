package core

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"vitdyn/internal/engine"
	"vitdyn/internal/rdd"
)

func TestTargetBackends(t *testing.T) {
	for _, tc := range []struct {
		backend engine.CostBackend
		prefix  string
	}{
		{TargetGPU(), "gpu/"},
		{TargetAcceleratorE(), "magnet-time/"},
		{TargetAcceleratorEEnergy(), "magnet-energy/"},
		{TargetFLOPs(), "flops-proxy"},
	} {
		if !strings.HasPrefix(tc.backend.Name(), tc.prefix) {
			t.Errorf("backend name %q does not start with %q", tc.backend.Name(), tc.prefix)
		}
	}
}

// build builds the catalog the spec names on the backend, failing the
// test on error.
func build(t *testing.T, s Spec, backend engine.CostBackend) *rdd.Catalog {
	t.Helper()
	cat, _, err := Catalog(context.Background(), s, backend, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// collect materializes a candidate generator into a slice.
func collect(seq engine.CandidateSeq) []engine.Candidate {
	var out []engine.Candidate
	for c := range seq {
		out = append(out, c)
	}
	return out
}

func TestSegFormerCatalogGPU(t *testing.T) {
	cat := build(t, Spec{Family: "segformer", Dataset: "ADE", Step: 512}, TargetGPU())
	if len(cat.Paths) < 4 {
		t.Fatalf("catalog too small: %d paths", len(cat.Paths))
	}
	// Full path has the highest accuracy (~ the B2 baseline or slightly
	// above via the pred-channel quirk).
	if full := cat.Full(); full.Accuracy < 0.46 {
		t.Errorf("full path accuracy %.4f", full.Accuracy)
	}
	if cheap := cat.Cheapest(); cheap.Cost >= cat.Full().Cost {
		t.Error("cheapest path must cost less than the full path")
	}
	// Dynamic selection across a sinusoidal load completes every frame.
	tr := rdd.SinusoidTrace(500, cat.Cheapest().Cost, cat.Full().Cost*1.1, 100)
	sim := cat.Simulate(tr)
	if sim.Skipped != 0 {
		t.Errorf("dynamic policy skipped %d frames", sim.Skipped)
	}
	if sim.MeanAccuracy <= cat.Cheapest().Accuracy {
		t.Error("mean accuracy should exceed the worst path's")
	}
}

func TestSegFormerCatalogEnergyVsTime(t *testing.T) {
	s := Spec{Family: "segformer", Dataset: "ADE", Step: 1024}
	tc := build(t, s, TargetAcceleratorE())
	ec := build(t, s, TargetAcceleratorEEnergy())
	if tc.Full().Cost == ec.Full().Cost {
		t.Error("time and energy costs should differ")
	}
}

func TestRetrainedBeatsPretrainedCeiling(t *testing.T) {
	// Section V-A: retrained switching offers a better tradeoff at deep
	// savings. Compare the accuracy of the cheapest retrained point with a
	// pretrained point of comparable cost.
	target := TargetAcceleratorE()
	pre := build(t, Spec{Family: "segformer", Dataset: "ADE", Step: 512}, target)
	ret := build(t, Spec{Family: "segformer-retrained", Dataset: "ADE"}, target)
	if len(ret.Paths) != 3 {
		t.Fatalf("retrained catalog has %d paths", len(ret.Paths))
	}
	b1 := ret.Paths[1] // B0, B1, B2 ordered by cost
	if p, ok := pre.Select(b1.Cost); ok && p.Accuracy > b1.Accuracy {
		t.Errorf("pretrained path %s (%.4f) beats retrained B1 (%.4f) at equal cost — paper says retraining is the ceiling",
			p.Label, p.Accuracy, b1.Accuracy)
	}
}

func TestSwinCatalogs(t *testing.T) {
	cat := build(t, Spec{Family: "swin", Variant: "Tiny", Step: 512}, TargetAcceleratorE())
	if len(cat.Paths) < 2 {
		t.Fatalf("Swin catalog too small")
	}
	ret := build(t, Spec{Family: "swin-retrained"}, TargetGPU())
	if len(ret.Paths) != 3 {
		t.Fatalf("Swin retrained catalog has %d paths", len(ret.Paths))
	}
	// Base -> Tiny: the paper's 36% time saving at 3.6% loss.
	save := 1 - ret.Cheapest().Cost/ret.Full().Cost
	if save < 0.25 || save > 0.50 {
		t.Errorf("Swin Base->Tiny GPU time saving = %.3f, paper reports 0.36", save)
	}
	if _, _, err := Catalog(context.Background(), Spec{Family: "swin", Variant: "Huge", Step: 512}, TargetGPU(), 0); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestOFACatalogOnE(t *testing.T) {
	cat := build(t, Spec{Family: "ofa"}, TargetAcceleratorEEnergy())
	if len(cat.Paths) < 6 {
		t.Fatalf("OFA catalog has %d paths", len(cat.Paths))
	}
	full := cat.Full()
	if full.Label != "ofa-full" {
		t.Errorf("full OFA path = %s", full.Label)
	}
	// Find the ~3.3%-drop subnet and check the headline ~53% energy saving
	// band (Fig. 13).
	for _, p := range cat.Paths {
		if full.Accuracy-p.Accuracy > 0.030 && full.Accuracy-p.Accuracy < 0.040 {
			save := 1 - p.Cost/full.Cost
			if save < 0.45 || save > 0.80 {
				t.Errorf("energy saving at 3.3%% loss = %.3f, paper reports 0.53", save)
			}
		}
	}
}

func TestCatalogErrors(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Family: "segformer", Dataset: "KITTI", Step: 512}, `unknown dataset "KITTI"`},
		{Spec{Family: "segformer-retrained", Dataset: "KITTI"}, `unknown dataset "KITTI"`},
		{Spec{Family: "swin", Variant: "Huge", Step: 512}, "Huge"},
		{Spec{Family: "swin", Step: -3}, "bad step=-3"},
		{Spec{Family: "vit"}, `unknown family "vit" (want segformer, segformer-retrained, swin, swin-retrained, ofa)`},
	} {
		_, _, err := Catalog(context.Background(), tc.spec, TargetFLOPs(), 0)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want one containing %q", tc.spec, err, tc.want)
		}
	}
}

// seedSequentialCatalog replicates the seed's strictly sequential catalog
// construction: one goroutine, one backend call per candidate in input
// order, no cache, then the Pareto reduction.
func seedSequentialCatalog(t *testing.T, model string, cands []engine.Candidate, backend engine.CostBackend) *rdd.Catalog {
	t.Helper()
	var paths []rdd.Path
	for _, c := range cands {
		g, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		cost, err := backend.Cost(g)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, rdd.Path{Label: c.Label, Cost: cost, Accuracy: c.Accuracy})
	}
	cat, err := rdd.NewCatalog(model, paths)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// assertCatalogsIdentical requires exact equality: same model name, same
// frontier length and order, bit-identical costs and accuracies.
func assertCatalogsIdentical(t *testing.T, want, got *rdd.Catalog) {
	t.Helper()
	if want.Model != got.Model {
		t.Fatalf("model %q != %q", got.Model, want.Model)
	}
	if len(want.Paths) != len(got.Paths) {
		t.Fatalf("frontier size %d != %d", len(got.Paths), len(want.Paths))
	}
	for i := range want.Paths {
		w, g := want.Paths[i], got.Paths[i]
		if w.Label != g.Label || w.Cost != g.Cost || w.Accuracy != g.Accuracy {
			t.Errorf("path %d: got {%s %v %v}, want {%s %v %v}",
				i, g.Label, g.Cost, g.Accuracy, w.Label, w.Cost, w.Accuracy)
		}
	}
}

// assertGolden builds the spec's catalog through the streaming pipeline
// and requires it to equal the seed's sequential construction over the
// same candidates, with the stream's accounting balanced: every generated
// candidate is either pre-filtered or costed, and every frontier path was
// admitted.
func assertGolden(t *testing.T, s Spec, backend engine.CostBackend, workers int) {
	t.Helper()
	model, seq, err := s.Seq()
	if err != nil {
		t.Fatal(err)
	}
	cands := collect(seq)
	want := seedSequentialCatalog(t, model, cands, backend)
	got, st, err := Catalog(context.Background(), s, backend, workers)
	if err != nil {
		t.Fatal(err)
	}
	assertCatalogsIdentical(t, want, got)
	if st.Generated != int64(len(cands)) {
		t.Errorf("generated %d candidates, want %d", st.Generated, len(cands))
	}
	if st.Generated != st.Prefiltered+st.Costed {
		t.Errorf("stream accounting does not balance: %+v", st)
	}
	if st.Admitted < int64(len(got.Paths)) {
		t.Errorf("admitted %d < %d frontier paths", st.Admitted, len(got.Paths))
	}
}

// TestGoldenEquivalence proves the parallel engine produces exactly the
// catalog the seed's sequential construction produced, for every catalog
// family on its paper substrate.
func TestGoldenEquivalence(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name    string
		backend engine.CostBackend
		spec    Spec
	}{
		{"SegFormerADE-accelE", TargetAcceleratorE(), Spec{Family: "segformer", Dataset: "ADE", Step: 512}},
		{"SegFormerCity-gpu", TargetGPU(), Spec{Family: "segformer", Dataset: "City", Step: 1024}},
		{"SegFormerRetrained-gpu", TargetGPU(), Spec{Family: "segformer-retrained", Dataset: "ADE"}},
		{"SwinTiny-accelE", TargetAcceleratorE(), Spec{Family: "swin", Variant: "Tiny", Step: 512}},
		{"SwinRetrained-accelE", TargetAcceleratorE(), Spec{Family: "swin-retrained"}},
		{"OFA-accelE-energy", TargetAcceleratorEEnergy(), Spec{Family: "ofa"}},
	} {
		t.Run(tc.name, func(t *testing.T) { assertGolden(t, tc.spec, tc.backend, workers) })
	}
}

// TestStreamingMatchesBatchAllBuilders repeats the golden check for every
// family at a second parameter point — a finer step, the other dataset,
// another backend — with the default worker count: generator candidates,
// concurrent costing in arrival order, FLOPs-proxy pre-filtering and
// incremental frontier reduction still produce the sequential batch
// catalog.
func TestStreamingMatchesBatchAllBuilders(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend engine.CostBackend
		spec    Spec
	}{
		{"SegFormer", TargetAcceleratorE(), Spec{Family: "segformer", Dataset: "ADE", Step: 256}},
		{"SegFormerRetrained", TargetGPU(), Spec{Family: "segformer-retrained", Dataset: "City"}},
		{"Swin", TargetGPU(), Spec{Family: "swin", Variant: "Tiny", Step: 256}},
		{"SwinRetrained", TargetAcceleratorE(), Spec{Family: "swin-retrained"}},
		{"OFA", TargetAcceleratorEEnergy(), Spec{Family: "ofa"}},
	} {
		t.Run(tc.name, func(t *testing.T) { assertGolden(t, tc.spec, tc.backend, 0) })
	}
}

// TestFineSweepPrefilterRate pins the headline saving of the streaming
// pipeline: on a fine-step SegFormer sweep, at least 20% of generated
// candidates must be pre-filtered by the FLOPs-proxy admission check
// before any backend costing — while the catalog stays byte-identical to
// the sequential build (checked in TestGoldenEquivalence).
func TestFineSweepPrefilterRate(t *testing.T) {
	_, st, err := Catalog(context.Background(), Spec{Family: "segformer", Dataset: "ADE", Step: 64}, TargetAcceleratorE(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generated < 1000 {
		t.Fatalf("fine sweep generated only %d candidates", st.Generated)
	}
	if rate := st.PrefilterRate(); rate < 0.20 {
		t.Errorf("prefilter rate %.3f (%d/%d), want >= 0.20", rate, st.Prefiltered, st.Generated)
	}
	if st.Generated != st.Prefiltered+st.Costed {
		t.Errorf("stream accounting does not balance: %+v", st)
	}
}
