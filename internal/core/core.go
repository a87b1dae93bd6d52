// Package core ties the substrates together into the paper's primary
// contribution: resource-dependent dynamic (RDD) inference for vision
// transformers. It builds execution-path catalogs — pretrained pruning
// paths, retrained model-family switches, and OFA subnet ladders — with
// costs from a pluggable engine.CostBackend (GPU latency model, MAGNet
// time or energy simulation, or the cheap FLOPs proxy) and accuracies
// from the anchored resilience surfaces, ready for the RDD controller in
// internal/rdd.
//
// Every catalog builder routes through internal/engine's streaming
// pipeline (generate → pre-filter → cost → frontier): candidates are
// emitted one at a time by a generator, costed across a worker pool as
// they arrive, and reduced into an incremental Pareto frontier — the
// resulting catalog is byte-identical to a batch sequential build while
// the full candidate set is never materialized and provably dominated
// candidates skip the backend entirely. Each builder comes in three
// forms: a *CandidateSeq generator of the labeled (graph constructor,
// accuracy) stream, a *Candidates collector for slice-based callers, and
// a *Catalog function building the frontier on a backend with a bounded
// number of workers (0 = GOMAXPROCS); *CatalogStream variants additionally
// report the pipeline's StreamStats.
package core

import (
	"context"
	"fmt"

	"vitdyn/internal/accuracy"
	"vitdyn/internal/engine"
	"vitdyn/internal/gpu"
	"vitdyn/internal/graph"
	"vitdyn/internal/magnet"
	"vitdyn/internal/nn"
	"vitdyn/internal/prune"
	"vitdyn/internal/rdd"
)

// TargetGPU returns an A5000 latency backend (cost in milliseconds).
func TargetGPU() engine.CostBackend { return engine.GPU(gpu.A5000()) }

// TargetAcceleratorE returns an accelerator-E backend costing by
// simulated time (milliseconds).
func TargetAcceleratorE() engine.CostBackend { return engine.MagnetTime(magnet.AcceleratorE()) }

// TargetAcceleratorEEnergy returns an accelerator-E backend costing by
// simulated energy (millijoules).
func TargetAcceleratorEEnergy() engine.CostBackend { return engine.MagnetEnergy(magnet.AcceleratorE()) }

// TargetFLOPs returns the FLOPs-proxy backend (cost in GMACs): no
// latency or energy model, just analytical op counts, for fast smoke
// costing of large sweeps.
func TargetFLOPs() engine.CostBackend { return engine.FLOPs() }

// SegFormerDataset resolves a dataset name ("ADE" or "City") to its
// resilience surface, class count and square input size — the single
// source of the paper's dataset parameterization, shared with
// internal/experiments.
func SegFormerDataset(dataset string) (*accuracy.SegFormerResilience, int, int, error) {
	switch dataset {
	case "ADE":
		return accuracy.NewSegFormerADE(), 150, 512, nil
	case "City":
		return accuracy.NewSegFormerCity(), 19, 1024, nil
	}
	return nil, 0, 0, fmt.Errorf("core: unknown dataset %q (want ADE or City)", dataset)
}

// streamCatalog runs a candidate generator through the engine's streaming
// pipeline — the shared back half of every catalog builder. Default
// StreamOptions enable the FLOPs-proxy admission pre-filter for the
// shipped backends (all engine.FLOPsMonotone) and cost every candidate
// on backends that make no such guarantee.
func streamCatalog(ctx context.Context, model string, seq engine.CandidateSeq, backend engine.CostBackend, workers int) (*rdd.Catalog, engine.StreamStats, error) {
	return engine.New(backend, workers).CatalogFromSeq(ctx, model, seq, engine.StreamOptions{})
}

// planned is the candidate for one pruning path's plan (see
// engine.PlanCandidate); a path whose plan could not be derived becomes a
// candidate that fails with that error when priced.
func planned(label string, accuracy float64, plan *graph.Plan, err error) engine.Candidate {
	if err != nil {
		return engine.Candidate{Label: label, Accuracy: accuracy, Build: func() (*graph.Graph, error) { return nil, err }}
	}
	return engine.PlanCandidate(label, accuracy, plan)
}

// SegFormerCandidateSeq enumerates the pretrained SegFormer B2 pruning
// sweep for a dataset as a push generator: the paper's joint sweep of
// encoder-block bypass and decoder channel pruning, scored with the
// anchored resilience surface. It returns the catalog name and the
// candidate stream; configurations are produced one at a time, so the
// streaming pipeline never holds the whole sweep. Each candidate carries
// its plan over the compiled full B2 model (compiled on first use), so
// LayerAdditive backends price it without building its graph.
func SegFormerCandidateSeq(dataset string, channelStep int) (string, engine.CandidateSeq, error) {
	res, classes, size, err := SegFormerDataset(dataset)
	if err != nil {
		return "", nil, err
	}
	cfg, err := nn.SegFormerB("B2", classes)
	if err != nil {
		return "", nil, err
	}
	tmpl, err := prune.CompileSegFormer(cfg, size, size)
	if err != nil {
		return "", nil, err
	}
	seq := func(yield func(engine.Candidate) bool) {
		for p := range prune.SegFormerSweepSeq(cfg, channelStep) {
			plan, err := tmpl.Plan(p)
			if !yield(planned(p.Label, res.Pretrained(p), plan, err)) {
				return
			}
		}
	}
	return "SegFormer-" + dataset + "-B2", seq, nil
}

// SegFormerCandidates materializes SegFormerCandidateSeq into a slice,
// for slice-based sweep callers.
func SegFormerCandidates(dataset string, channelStep int) (string, []engine.Candidate, error) {
	model, seq, err := SegFormerCandidateSeq(dataset, channelStep)
	if err != nil {
		return "", nil, err
	}
	return model, engine.CollectSeq(seq), nil
}

// SegFormerCatalogStream builds the RDD path catalog for a pretrained
// SegFormer B2 on the given dataset through the streaming pipeline,
// reporting how many candidates were generated, pre-filtered, costed and
// admitted. workers <= 0 selects GOMAXPROCS.
func SegFormerCatalogStream(ctx context.Context, dataset string, backend engine.CostBackend, channelStep, workers int) (*rdd.Catalog, engine.StreamStats, error) {
	model, seq, err := SegFormerCandidateSeq(dataset, channelStep)
	if err != nil {
		return nil, engine.StreamStats{}, err
	}
	return streamCatalog(ctx, model, seq, backend, workers)
}

// SegFormerCatalog builds the RDD path catalog for a pretrained SegFormer
// B2 on the given dataset, streamed and costed concurrently on the
// backend and reduced incrementally to its Pareto frontier. workers <= 0
// selects GOMAXPROCS.
func SegFormerCatalog(dataset string, backend engine.CostBackend, channelStep, workers int) (*rdd.Catalog, error) {
	cat, _, err := SegFormerCatalogStream(context.Background(), dataset, backend, channelStep, workers)
	return cat, err
}

// SegFormerRetrainedCandidateSeq enumerates the retrained switching
// family (B0/B1/B2) for a dataset as a push generator.
func SegFormerRetrainedCandidateSeq(dataset string) (string, engine.CandidateSeq, error) {
	_, classes, size, err := SegFormerDataset(dataset)
	if err != nil {
		return "", nil, err
	}
	// Resolve configs and accuracies eagerly: lookup failures surface as a
	// builder error, not a mid-stream candidate failure.
	variants := []string{"B0", "B1", "B2"}
	cfgs := make([]nn.SegFormerConfig, len(variants))
	accs := make([]float64, len(variants))
	for i, v := range variants {
		if cfgs[i], err = nn.SegFormerB(v, classes); err != nil {
			return "", nil, err
		}
		if accs[i], err = accuracy.SegFormerBaseline(v, dataset); err != nil {
			return "", nil, err
		}
	}
	seq := func(yield func(engine.Candidate) bool) {
		for i, v := range variants {
			cfg := cfgs[i]
			ok := yield(engine.Candidate{
				Label:    "SegFormer-" + v,
				Accuracy: accs[i],
				Build: func() (*graph.Graph, error) {
					return nn.SegFormer(cfg, size, size)
				},
			})
			if !ok {
				return
			}
		}
	}
	return "SegFormer-" + dataset + "-retrained", seq, nil
}

// SegFormerRetrainedCandidates materializes SegFormerRetrainedCandidateSeq
// into a slice.
func SegFormerRetrainedCandidates(dataset string) (string, []engine.Candidate, error) {
	model, seq, err := SegFormerRetrainedCandidateSeq(dataset)
	if err != nil {
		return "", nil, err
	}
	return model, engine.CollectSeq(seq), nil
}

// SegFormerRetrainedCatalogStream builds the retrained switching catalog
// (B0/B1/B2) through the streaming pipeline, with stats.
func SegFormerRetrainedCatalogStream(ctx context.Context, dataset string, backend engine.CostBackend, workers int) (*rdd.Catalog, engine.StreamStats, error) {
	model, seq, err := SegFormerRetrainedCandidateSeq(dataset)
	if err != nil {
		return nil, engine.StreamStats{}, err
	}
	return streamCatalog(ctx, model, seq, backend, workers)
}

// SegFormerRetrainedCatalog builds the retrained switching catalog
// (B0/B1/B2) on the backend.
func SegFormerRetrainedCatalog(dataset string, backend engine.CostBackend, workers int) (*rdd.Catalog, error) {
	cat, _, err := SegFormerRetrainedCatalogStream(context.Background(), dataset, backend, workers)
	return cat, err
}

// SwinCandidateSeq enumerates the Swin pruning sweep for a variant as a
// push generator. The paper recommends retrained switching for Swin; this
// sweep exists to quantify why (its frontier is steep). Candidates carry
// plans, as in SegFormerCandidateSeq.
func SwinCandidateSeq(variant string, channelStep int) (string, engine.CandidateSeq, error) {
	cfg, err := nn.SwinVariant(variant, 150)
	if err != nil {
		return "", nil, err
	}
	res, err := accuracy.NewSwin(variant)
	if err != nil {
		return "", nil, err
	}
	tmpl, err := prune.CompileSwin(cfg, 512, 512)
	if err != nil {
		return "", nil, err
	}
	full := prune.FullSwinPath(cfg)
	seq := func(yield func(engine.Candidate) bool) {
		for p := range prune.SwinSweepSeq(cfg, channelStep) {
			plan, err := tmpl.Plan(p)
			if !yield(planned(p.Label, res.Pretrained(p, full), plan, err)) {
				return
			}
		}
	}
	return "Swin-" + variant, seq, nil
}

// SwinCandidates materializes SwinCandidateSeq into a slice.
func SwinCandidates(variant string, channelStep int) (string, []engine.Candidate, error) {
	model, seq, err := SwinCandidateSeq(variant, channelStep)
	if err != nil {
		return "", nil, err
	}
	return model, engine.CollectSeq(seq), nil
}

// SwinCatalogStream builds the Swin pruning catalog for a variant through
// the streaming pipeline, with stats.
func SwinCatalogStream(ctx context.Context, variant string, backend engine.CostBackend, channelStep, workers int) (*rdd.Catalog, engine.StreamStats, error) {
	model, seq, err := SwinCandidateSeq(variant, channelStep)
	if err != nil {
		return nil, engine.StreamStats{}, err
	}
	return streamCatalog(ctx, model, seq, backend, workers)
}

// SwinCatalog builds the Swin pruning catalog for a variant on the
// backend.
func SwinCatalog(variant string, backend engine.CostBackend, channelStep, workers int) (*rdd.Catalog, error) {
	cat, _, err := SwinCatalogStream(context.Background(), variant, backend, channelStep, workers)
	return cat, err
}

// SwinRetrainedCandidateSeq enumerates the Tiny/Small/Base switching
// family as a push generator.
func SwinRetrainedCandidateSeq() (string, engine.CandidateSeq, error) {
	variants := []string{"Tiny", "Small", "Base"}
	accs := make([]float64, len(variants))
	for i, v := range variants {
		acc, err := accuracy.SwinBaseline(v)
		if err != nil {
			return "", nil, err
		}
		accs[i] = acc
	}
	seq := func(yield func(engine.Candidate) bool) {
		for i, v := range variants {
			v := v
			ok := yield(engine.Candidate{
				Label:    "Swin-" + v,
				Accuracy: accs[i],
				Build: func() (*graph.Graph, error) {
					return nn.MustSwin(v, 150, 512, 512), nil
				},
			})
			if !ok {
				return
			}
		}
	}
	return "Swin-retrained", seq, nil
}

// SwinRetrainedCandidates materializes SwinRetrainedCandidateSeq into a
// slice.
func SwinRetrainedCandidates() (string, []engine.Candidate, error) {
	model, seq, err := SwinRetrainedCandidateSeq()
	if err != nil {
		return "", nil, err
	}
	return model, engine.CollectSeq(seq), nil
}

// SwinRetrainedCatalogStream builds the Tiny/Small/Base switching catalog
// through the streaming pipeline, with stats.
func SwinRetrainedCatalogStream(ctx context.Context, backend engine.CostBackend, workers int) (*rdd.Catalog, engine.StreamStats, error) {
	model, seq, err := SwinRetrainedCandidateSeq()
	if err != nil {
		return nil, engine.StreamStats{}, err
	}
	return streamCatalog(ctx, model, seq, backend, workers)
}

// SwinRetrainedCatalog builds the Tiny/Small/Base switching catalog.
func SwinRetrainedCatalog(backend engine.CostBackend, workers int) (*rdd.Catalog, error) {
	cat, _, err := SwinRetrainedCatalogStream(context.Background(), backend, workers)
	return cat, err
}

// OFACandidateSeq enumerates the Once-For-All ResNet-50 subnet ladder
// (the paper's Fig. 13) as a push generator.
func OFACandidateSeq() (string, engine.CandidateSeq, error) {
	seq := func(yield func(engine.Candidate) bool) {
		for _, sub := range nn.OFACatalog() {
			sub := sub
			ok := yield(engine.Candidate{
				Label:    sub.ID,
				Accuracy: sub.Top1,
				Build: func() (*graph.Graph, error) {
					return nn.OFAResNet(sub, 224, 224)
				},
			})
			if !ok {
				return
			}
		}
	}
	return "OFA-ResNet-50", seq, nil
}

// OFACandidates materializes OFACandidateSeq into a slice.
func OFACandidates() (string, []engine.Candidate, error) {
	model, seq, err := OFACandidateSeq()
	if err != nil {
		return "", nil, err
	}
	return model, engine.CollectSeq(seq), nil
}

// OFACatalogStream builds the Once-For-All ResNet-50 switching catalog
// through the streaming pipeline, with stats.
func OFACatalogStream(ctx context.Context, backend engine.CostBackend, workers int) (*rdd.Catalog, engine.StreamStats, error) {
	model, seq, err := OFACandidateSeq()
	if err != nil {
		return nil, engine.StreamStats{}, err
	}
	return streamCatalog(ctx, model, seq, backend, workers)
}

// OFACatalog builds the Once-For-All ResNet-50 switching catalog on the
// backend.
func OFACatalog(backend engine.CostBackend, workers int) (*rdd.Catalog, error) {
	cat, _, err := OFACatalogStream(context.Background(), backend, workers)
	return cat, err
}
