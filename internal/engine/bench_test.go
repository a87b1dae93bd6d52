package engine_test

// Sequential-vs-parallel catalog benchmarks over the real paper workload:
// the SegFormer ADE B2 pruning sweep costed on a MAGNet accelerator-E
// simulation. Run with
//
//	go test -bench=Catalog -benchtime=5x ./internal/engine/
//
// and compare BenchmarkCatalogSequential against BenchmarkCatalogParallel:
// at workers=GOMAXPROCS the parallel engine wins by roughly the core
// count (fresh engine per iteration, so the memo cache never hides the
// work).

import (
	"context"
	"runtime"
	"testing"
	"time"

	"vitdyn/internal/core"
	"vitdyn/internal/engine"
	"vitdyn/internal/graph"
)

// segformerSweep returns the catalog name and candidate generator of the
// step-256 SegFormer ADE sweep, with its candidate count.
func segformerSweep(b *testing.B) (string, engine.CandidateSeq, int) {
	b.Helper()
	model, seq, err := core.Spec{Family: "segformer", Dataset: "ADE", Step: 256}.Seq()
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for range seq {
		n++
	}
	return model, seq, n
}

// take limits a generator to its first n candidates.
func take(seq engine.CandidateSeq, n int) engine.CandidateSeq {
	return func(yield func(engine.Candidate) bool) {
		i := 0
		for c := range seq {
			if i == n || !yield(c) {
				return
			}
			i++
		}
	}
}

// buildCatalog builds the catalog on e, failing the benchmark on error.
func buildCatalog(b *testing.B, e *engine.Engine, model string, seq engine.CandidateSeq) {
	b.Helper()
	if _, _, err := e.CatalogFromSeq(context.Background(), model, seq, engine.StreamOptions{}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkCatalogSequential(b *testing.B) {
	model, seq, n := segformerSweep(b)
	backend := core.TargetAcceleratorE()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildCatalog(b, engine.New(backend, 1), model, seq)
	}
	b.ReportMetric(float64(n), "graphs/op")
}

func BenchmarkCatalogParallel(b *testing.B) {
	model, seq, n := segformerSweep(b)
	backend := core.TargetAcceleratorE()
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildCatalog(b, engine.New(backend, workers), model, seq)
	}
	b.ReportMetric(float64(n), "graphs/op")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkCatalogParallelCached measures the steady-state cost of a
// build whose candidates were all costed before (pure cache hits plus
// candidate generation and hashing).
func BenchmarkCatalogParallelCached(b *testing.B) {
	model, seq, _ := segformerSweep(b)
	e := engine.New(core.TargetAcceleratorE(), 0)
	buildCatalog(b, e, model, seq)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildCatalog(b, e, model, seq)
	}
}

// latencyBackend models a cost substrate dominated by per-graph latency
// rather than CPU (a remote simulation service, a licensed simulator
// behind RPC): Cost blocks ~1ms per distinct graph. It isolates the
// worker pool's concurrency win from raw core count, so the parallel
// speedup is visible even on a single-core machine. It declares neither
// FLOPsMonotone nor LayerAdditive, so every candidate is built and costed.
type latencyBackend struct{}

func (latencyBackend) Name() string { return "latency-1ms" }

func (latencyBackend) Cost(g *graph.Graph) (float64, error) {
	time.Sleep(time.Millisecond)
	return float64(g.TotalMACs()) / 1e9, nil
}

func BenchmarkCatalogLatencyBoundSequential(b *testing.B) {
	model, seq, _ := segformerSweep(b)
	seq = take(seq, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildCatalog(b, engine.New(latencyBackend{}, 1), model, seq)
	}
}

func BenchmarkCatalogLatencyBoundParallel16(b *testing.B) {
	model, seq, _ := segformerSweep(b)
	seq = take(seq, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildCatalog(b, engine.New(latencyBackend{}, 16), model, seq)
	}
}

// BenchmarkCatalogParallelSpeedup builds the full SegFormer RDD catalog
// both ways in one benchmark run and reports the measured speedup, so
// `make bench` demonstrates the engine win without cross-run math.
func BenchmarkCatalogParallelSpeedup(b *testing.B) {
	backend := core.TargetAcceleratorE()
	spec := core.Spec{Family: "segformer", Dataset: "ADE", Step: 256}
	for i := 0; i < b.N; i++ {
		seqNS := timeOnce(b, func() {
			if _, _, err := core.Catalog(context.Background(), spec, backend, 1); err != nil {
				b.Fatal(err)
			}
		})
		parNS := timeOnce(b, func() {
			if _, _, err := core.Catalog(context.Background(), spec, backend, runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		})
		if i == 0 {
			b.ReportMetric(seqNS/parNS, "speedup")
		}
	}
}

func timeOnce(b *testing.B, fn func()) float64 {
	b.Helper()
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds())
}
