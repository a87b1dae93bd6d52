package vitdyn

// The benchmark harness regenerates every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment and, on the
// first iteration, prints the regenerated rows so that
//
//	go test -bench=. -benchmem
//
// emits the full reproduction alongside harness timings. EXPERIMENTS.md
// records the paper-vs-measured comparison for each one.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"vitdyn/internal/experiments"
	"vitdyn/internal/gpu"
	"vitdyn/internal/magnet"
	"vitdyn/internal/nn"
	"vitdyn/internal/rdd"
)

// printOnce guards table output so repeated benchmark iterations do not
// spam the log.
var printOnce sync.Map

func emit(b *testing.B, key string, render func() fmt.Stringer) {
	if _, done := printOnce.LoadOrStore(key, true); done {
		return
	}
	b.StopTimer()
	fmt.Fprintln(os.Stderr)
	fmt.Fprint(os.Stderr, render().String())
	b.StartTimer()
}

func BenchmarkTable1ModelOverview(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1ModelOverview()
		if err != nil {
			b.Fatal(err)
		}
		emit(b, "table1", func() fmt.Stringer { return experiments.RenderTable1(rows) })
	}
}

func BenchmarkFig1DETRConvShare(b *testing.B) {
	sizes := []int{128, 256, 512, 800, 1024, 2048}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig1DETRConvShare(sizes, 0)
		if err != nil {
			b.Fatal(err)
		}
		emit(b, "fig1", func() fmt.Stringer { return experiments.RenderFig1(rows) })
	}
}

func BenchmarkFig3FLOPsDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3FLOPsDistribution(8)
		if err != nil {
			b.Fatal(err)
		}
		emit(b, "fig3", func() fmt.Stringer { return experiments.RenderFig3(res) })
	}
}

func BenchmarkFig4ConvGPUTimeShare(b *testing.B) {
	sizes := []int{128, 256, 512, 1024}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4ConvGPUTime(sizes, 0)
		if err != nil {
			b.Fatal(err)
		}
		emit(b, "fig4", func() fmt.Stringer { return experiments.RenderFig4(rows) })
	}
}

func BenchmarkTable2AcceleratorAreas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2AcceleratorAreas()
		emit(b, "table2", func() fmt.Stringer { return experiments.RenderTable2(rows) })
	}
}

func BenchmarkFig6EnergyVsThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6EnergyVsThroughput(0)
		if err != nil {
			b.Fatal(err)
		}
		emit(b, "fig6", func() fmt.Stringer { return experiments.RenderFig6(rows) })
	}
}

func BenchmarkFig7SegFormerOnE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AcceleratorDistribution("segformer-ade-b2", 8)
		if err != nil {
			b.Fatal(err)
		}
		emit(b, "fig7", func() fmt.Stringer { return experiments.RenderDistribution(res, "Fig 7") })
	}
}

func BenchmarkFig8EnergyPerFLOP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8EnergyPerFLOP(12)
		if err != nil {
			b.Fatal(err)
		}
		emit(b, "fig8", func() fmt.Stringer { return experiments.RenderFig8(rows) })
	}
}

func BenchmarkFig9SwinOnE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AcceleratorDistribution("swin-tiny", 8)
		if err != nil {
			b.Fatal(err)
		}
		emit(b, "fig9", func() fmt.Stringer { return experiments.RenderDistribution(res, "Fig 9") })
	}
}

func BenchmarkFig10SegFormerGPUTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ds := range []string{"ADE", "City"} {
			rows, err := experiments.Fig10SegFormerGPUTradeoff(ds, 0)
			if err != nil {
				b.Fatal(err)
			}
			key, title := "fig10-"+ds, "Fig 10 ("+ds+"): GPU time vs mIoU"
			emit(b, key, func() fmt.Stringer { return paretoOnly(title, rows) })
		}
	}
}

// paretoOnly renders just the frontier rows of a large tradeoff sweep.
func paretoOnly(title string, rows []experiments.TradeoffRow) fmt.Stringer {
	var keep []experiments.TradeoffRow
	for _, r := range rows {
		if r.Pareto || r.Source == "retrained" {
			keep = append(keep, r)
		}
	}
	return experiments.RenderTradeoff(title, keep)
}

func BenchmarkTable3SegFormerConfigs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3SegFormerConfigs()
		if err != nil {
			b.Fatal(err)
		}
		emit(b, "table3", func() fmt.Stringer { return experiments.RenderTable3(rows) })
	}
}

func BenchmarkFig11SegFormerAccelTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11SegFormerAccelTradeoff(0)
		if err != nil {
			b.Fatal(err)
		}
		emit(b, "fig11", func() fmt.Stringer {
			return experiments.RenderTradeoff("Fig 11: accelerator E time/energy vs mIoU", rows)
		})
	}
}

func BenchmarkFig12SwinTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12SwinTradeoff(0)
		if err != nil {
			b.Fatal(err)
		}
		emit(b, "fig12", func() fmt.Stringer { return experiments.RenderFig12(rows) })
	}
}

func BenchmarkFig13OFASwitching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13OFASwitching(0)
		if err != nil {
			b.Fatal(err)
		}
		emit(b, "fig13", func() fmt.Stringer { return experiments.RenderFig13(rows) })
	}
}

func BenchmarkHeadlineClaims(b *testing.B) {
	for i := 0; i < b.N; i++ {
		claims, err := experiments.HeadlineClaims(0)
		if err != nil {
			b.Fatal(err)
		}
		emit(b, "claims", func() fmt.Stringer { return experiments.RenderClaims(claims) })
	}
}

// --- Ablation benchmarks (DESIGN.md Section 5) ---

// BenchmarkAblationFLOPsOnlyPredictor quantifies Section III-C: how far a
// FLOPs-proportional runtime predictor diverges from the calibrated model.
func BenchmarkAblationFLOPsOnlyPredictor(b *testing.B) {
	g := nn.MustSegFormer("B2", 150, 512, 512)
	naive := gpu.FLOPsOnlyDevice()
	real := gpu.A5000()
	for i := 0; i < b.N; i++ {
		n := naive.Run(g).ConvTimeShare()
		r := real.Run(g).ConvTimeShare()
		if i == 0 {
			b.ReportMetric(n, "convshare-flopsonly")
			b.ReportMetric(r, "convshare-calibrated")
		}
	}
}

// BenchmarkAblationBufferSizing sweeps weight/input buffer sizes around
// accelerator E (the Section IV-B sweet-spot analysis).
func BenchmarkAblationBufferSizing(b *testing.B) {
	g := nn.MustSegFormer("B2", 150, 512, 512)
	for i := 0; i < b.N; i++ {
		base := magnet.AcceleratorE()
		for _, wb := range []int{32, 64, 128, 256, 1024} {
			c := base
			c.Name = fmt.Sprintf("E-wb%d", wb)
			c.SynthesizedAreaMM2 = 0
			c.WeightBufKB = wb
			r, err := c.Simulate(g)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(r.EnergyPerMAC(), fmt.Sprintf("pJ/MAC-wb%d", wb))
			}
		}
	}
}

// BenchmarkAblationVectorWidth compares K0=C0=32 against K0=C0=16 at equal
// total MACs (Section IV-B: ~1.4x energy, ~2.8x area per FLOP).
func BenchmarkAblationVectorWidth(b *testing.B) {
	g := nn.MustSegFormer("B2", 150, 512, 512)
	e := magnet.AcceleratorE()
	h, _ := magnet.ByName("H")
	for i := 0; i < b.N; i++ {
		re, err := e.Simulate(g)
		if err != nil {
			b.Fatal(err)
		}
		rh, err := h.Simulate(g)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rh.EnergyPerMAC()/re.EnergyPerMAC(), "energy-ratio-16v32")
			b.ReportMetric(rh.TotalSeconds/re.TotalSeconds, "time-ratio-16v32")
		}
	}
}

// BenchmarkAblationDecoderVsEncoderPruning contrasts the paper's principle
// 2 (Section V-D): at matched FLOP savings, decoder-channel pruning costs
// far less accuracy than encoder-block bypass.
func BenchmarkAblationDecoderVsEncoderPruning(b *testing.B) {
	cfg, _ := nn.SegFormerB("B2", 150)
	res := SegFormerADEResilience()
	for i := 0; i < b.N; i++ {
		dec := SegFormerPath{Label: "dec", EncoderBlocks: [4]int{3, 4, 6, 3},
			FuseInCh: 1920, PredInCh: 768, DecodeLinear0Ch: 64}
		enc := SegFormerPath{Label: "enc", EncoderBlocks: [4]int{2, 3, 5, 3},
			FuseInCh: 3072, PredInCh: 768, DecodeLinear0Ch: 64}
		gd, err := ApplySegFormerPath(cfg, 512, 512, dec)
		if err != nil {
			b.Fatal(err)
		}
		ge, err := ApplySegFormerPath(cfg, 512, 512, enc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(gd.TotalMACs())/1e9, "GMACs-decoder-pruned")
			b.ReportMetric(float64(ge.TotalMACs())/1e9, "GMACs-encoder-pruned")
			b.ReportMetric(res.Baseline-res.Pretrained(dec), "loss-decoder")
			b.ReportMetric(res.Baseline-res.Pretrained(enc), "loss-encoder")
		}
	}
}

// BenchmarkAblationRDDVsStatic quantifies Section V-E: dynamic path
// selection against static model choices over a bursty load.
func BenchmarkAblationRDDVsStatic(b *testing.B) {
	cat, _, err := BuildRDDCatalog(context.Background(), CatalogSpec{Family: "segformer", Dataset: "ADE", Step: 512}, TargetAcceleratorE())
	if err != nil {
		b.Fatal(err)
	}
	tr := rdd.BurstyTrace(2000, cat.Cheapest().Cost*1.05, cat.Full().Cost*1.05, 0.4, 7)
	for i := 0; i < b.N; i++ {
		dyn := cat.Simulate(tr)
		stFull := rdd.SimulateStatic(cat.Full(), tr)
		stWorst := rdd.SimulateStatic(cat.Cheapest(), tr)
		if i == 0 {
			b.ReportMetric(dyn.EffectiveAccuracy(), "acc-dynamic")
			b.ReportMetric(stFull.EffectiveAccuracy(), "acc-static-full")
			b.ReportMetric(stWorst.EffectiveAccuracy(), "acc-static-worst")
		}
	}
}

// BenchmarkAblationEarlyExitVsRDD contrasts RDD with the input-dependent
// early-exit baseline of the paper's related work (Sections I, VI): same
// cost/accuracy frontier, different policy. Early exit wins on average cost
// without budgets; RDD wins on effective accuracy under budgets.
func BenchmarkAblationEarlyExitVsRDD(b *testing.B) {
	cat, _, err := BuildRDDCatalog(context.Background(), CatalogSpec{Family: "segformer", Dataset: "ADE", Step: 512}, TargetAcceleratorE())
	if err != nil {
		b.Fatal(err)
	}
	ee, err := rdd.EarlyExitFromCatalog(cat, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	tr := rdd.StepTrace(2000, cat.Cheapest().Cost*1.05, cat.Full().Cost*1.05, 50)
	for i := 0; i < b.N; i++ {
		dyn := cat.Simulate(tr)
		exit := ee.Simulate(tr, 42)
		if i == 0 {
			b.ReportMetric(dyn.EffectiveAccuracy(), "acc-rdd")
			b.ReportMetric(exit.EffectiveAccuracy(), "acc-earlyexit")
			b.ReportMetric(float64(exit.Skipped), "misses-earlyexit")
			b.ReportMetric(ee.MeanCost()/ee.WorstCaseCost(), "earlyexit-avgcost-frac")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator performance: layers
// simulated per second on accelerator E for the largest model.
func BenchmarkSimulatorThroughput(b *testing.B) {
	g := nn.MustSwin("Base", 150, 512, 512)
	e := magnet.AcceleratorE()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Simulate(g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(g.Layers)), "layers/op")
}

// BenchmarkGraphConstruction measures model-builder performance.
func BenchmarkGraphConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewSegFormer("B2", 150, 512, 512); err != nil {
			b.Fatal(err)
		}
	}
}
