package engine

import (
	"testing"

	"vitdyn/internal/gpu"
	"vitdyn/internal/graph"
	"vitdyn/internal/magnet"
	"vitdyn/internal/nn"
	"vitdyn/internal/prune"
)

// stepPlans returns one mid-sweep plan of each pruning family: a
// SegFormer-ADE B2 step-900 path (bypassed blocks, patched decoder) and
// a Swin-Tiny step-384 path (bypassed blocks, a dropped upsample).
func stepPlans(tb testing.TB) map[string]*graph.Plan {
	tb.Helper()
	scfg, err := nn.SegFormerB("B2", 150)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := prune.CompileSegFormer(scfg, 512, 512)
	if err != nil {
		tb.Fatal(err)
	}
	sweep := prune.SegFormerSweep(scfg, 900)
	sp, err := st.Plan(sweep[len(sweep)/2])
	if err != nil {
		tb.Fatal(err)
	}
	wcfg, err := nn.SwinVariant("Tiny", 150)
	if err != nil {
		tb.Fatal(err)
	}
	wt, err := prune.CompileSwin(wcfg, 512, 512)
	if err != nil {
		tb.Fatal(err)
	}
	wsweep := prune.SwinSweep(wcfg, 384)
	wp, err := wt.Plan(wsweep[len(wsweep)-1])
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*graph.Plan{"segformer": sp, "swin": wp}
}

func additiveBackends() []CostBackend {
	return []CostBackend{GPU(gpu.A5000()), MagnetTime(magnet.AcceleratorE()), FLOPs()}
}

// TestSumPlanAllocatesNothing pins the positional sum: against a warm
// vector it allocates nothing, on every additive backend and family.
func TestSumPlanAllocatesNothing(t *testing.T) {
	for name, p := range stepPlans(t) {
		for _, b := range append(additiveBackends(), MagnetTimeEnergy(magnet.AcceleratorE())) {
			e := New(b, 1)
			vec, err := e.layerVector(p.Template())
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]float64, 2*e.width)
			if allocs := testing.AllocsPerRun(100, func() {
				if err := e.sumPlan(p, vec, buf[:e.width], buf[e.width:]); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s on %s: sumPlan allocates %v per call, want 0", name, b.Name(), allocs)
			}
		}
	}
}

// BenchmarkPricePlan times what pricing one candidate from its plan
// costs a LayerAdditive backend once its template vector is warm: the
// prefilter's MACs, the signature the cost store is keyed by, and the
// positional sum. BenchmarkPriceGraph is the whole-graph path for the
// same candidate: materialise, MACs, signature, backend Cost.
func BenchmarkPricePlan(b *testing.B) {
	plans := stepPlans(b)
	for _, family := range []string{"segformer", "swin"} {
		p := plans[family]
		for _, backend := range additiveBackends() {
			b.Run(family+"/"+backendLabel(backend), func(b *testing.B) {
				e := New(backend, 1)
				vec, err := e.layerVector(p.Template())
				if err != nil {
					b.Fatal(err)
				}
				buf := make([]float64, 2*e.width)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = p.MACs()
					_ = p.Signature()
					if err := e.sumPlan(p, vec, buf[:e.width], buf[e.width:]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(p.Len()), "layers/op")
			})
		}
	}
}

func BenchmarkPriceGraph(b *testing.B) {
	plans := stepPlans(b)
	for _, family := range []string{"segformer", "swin"} {
		p := plans[family]
		for _, backend := range additiveBackends() {
			b.Run(family+"/"+backendLabel(backend), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g := p.Graph()
					_ = g.TotalMACs()
					_ = g.Signature()
					if _, err := backend.Cost(g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// backendLabel is the short benchmark name of a shipped backend.
func backendLabel(b CostBackend) string {
	switch b.(type) {
	case gpuBackend:
		return "gpu"
	case magnetBackend:
		return "magnet-time"
	}
	return "flops"
}
