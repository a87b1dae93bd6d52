// Package core ties the substrates together into the paper's primary
// contribution: resource-dependent dynamic (RDD) inference for vision
// transformers. It builds execution-path catalogs — pretrained pruning
// paths, retrained model-family switches, and OFA subnet ladders — with
// costs from a pluggable engine.CostBackend (GPU latency model, MAGNet
// time or energy simulation, or the cheap FLOPs proxy) and accuracies
// from the anchored resilience surfaces, ready for the RDD controller in
// internal/rdd.
//
// The five catalog families are rows of one table, named by a Spec
// (family plus the dataset, variant and channel step the family reads).
// Spec.Canonical folds a spec to the one form per distinct catalog,
// Spec.Seq resolves it to the catalog name and a generator of labeled
// (graph constructor or plan, accuracy) candidates, and Catalog runs that
// generator through internal/engine's streaming pipeline (generate →
// pre-filter → cost → frontier) on a backend with a bounded number of
// workers (0 = GOMAXPROCS). Candidates are costed as they arrive and
// reduced into an incremental Pareto frontier: the catalog is
// byte-identical to a sequential batch build, while the full candidate
// set is never materialized and provably dominated candidates skip the
// backend entirely.
package core

import (
	"context"
	"fmt"
	"strings"

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

// Spec names one catalog: an execution-path family plus the sweep
// parameters the family reads. Canonical zeroes the ones it ignores.
type Spec struct {
	Family  string // segformer | segformer-retrained | swin | swin-retrained | ofa
	Dataset string // segformer families: ADE (default) or City
	Variant string // swin: Tiny (default), Small, Base
	Step    int    // pruning sweeps: channel step (0 = family default)
}

// family is one row of the catalog-family table: which spec fields the
// family reads, their defaults, and its candidate generator.
type family struct {
	name    string
	dataset string // default Dataset; "" = the family ignores Dataset
	variant string // default Variant; "" = the family ignores Variant
	step    int    // default Step; 0 = the family ignores Step
	seq     func(Spec) (string, engine.CandidateSeq, error)
}

// families is the catalog-family table, in the order errors list them.
var families = [...]family{
	{name: "segformer", dataset: "ADE", step: prune.DefaultSegFormerStep, seq: segformerSeq},
	{name: "segformer-retrained", dataset: "ADE", seq: segformerRetrainedSeq},
	{name: "swin", variant: "Tiny", step: prune.DefaultSwinStep, seq: swinSeq},
	{name: "swin-retrained", seq: swinRetrainedSeq},
	{name: "ofa", seq: ofaSeq},
}

// lookup returns the family's row, or nil for an unknown family.
func lookup(name string) *family {
	for i := range families {
		if families[i].name == name {
			return &families[i]
		}
	}
	return nil
}

// Canonical folds the spec to the one form every consumer (candidate
// generation, cache keys, canonical response identities) sees per
// distinct catalog: fields the family ignores are zeroed, omitted ones
// resolved (dataset ADE, variant Tiny), and an explicit family-default
// step folded to 0. A negative step is left as given: Seq rejects it, and
// it must not share a form with a valid spec. A spec of an unknown family
// is returned unchanged.
func (s Spec) Canonical() Spec {
	if f := lookup(s.Family); f != nil {
		return f.canonical(s)
	}
	return s
}

func (f *family) canonical(s Spec) Spec {
	s.Dataset = field(f.dataset, s.Dataset)
	s.Variant = field(f.variant, s.Variant)
	if s.Step >= 0 && (f.step == 0 || s.Step == f.step) {
		s.Step = 0
	}
	return s
}

// field is the canonical value of a spec field whose family default is
// def: "" when the family ignores the field, def when it was omitted.
func field(def, v string) string {
	if def == "" || v == "" {
		return def
	}
	return v
}

// Seq resolves the spec to its catalog name and candidate generator — the
// streaming form engine.CatalogFromSeq consumes.
func (s Spec) Seq() (string, engine.CandidateSeq, error) {
	if s.Step < 0 {
		return "", nil, fmt.Errorf("bad step=%d: want a channel step >= 0 (0 = family default)", s.Step)
	}
	f := lookup(s.Family)
	if f == nil {
		names := make([]string, len(families))
		for i := range families {
			names[i] = families[i].name
		}
		return "", nil, fmt.Errorf("unknown family %q (want %s)", s.Family, strings.Join(names, ", "))
	}
	return f.seq(f.canonical(s))
}

// Catalog builds the catalog the spec names on the backend through the
// streaming pipeline, reporting how many candidates were generated,
// pre-filtered, costed and admitted. Default StreamOptions enable the
// FLOPs-proxy admission pre-filter for the shipped backends (all
// engine.FLOPsMonotone) and cost every candidate on backends that make no
// such guarantee. workers <= 0 selects GOMAXPROCS.
func Catalog(ctx context.Context, s Spec, backend engine.CostBackend, workers int) (*rdd.Catalog, engine.StreamStats, error) {
	model, seq, err := s.Seq()
	if err != nil {
		return nil, engine.StreamStats{}, err
	}
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

// segformerSeq enumerates the pretrained SegFormer B2 pruning sweep for a
// dataset: the paper's joint sweep of encoder-block bypass and decoder
// channel pruning, scored with the anchored resilience surface.
// Configurations are produced one at a time, so the streaming pipeline
// never holds the whole sweep. Each candidate carries its plan over the
// compiled full B2 model (compiled on first use), so LayerAdditive
// backends price it without building its graph.
func segformerSeq(s Spec) (string, engine.CandidateSeq, error) {
	res, classes, size, err := SegFormerDataset(s.Dataset)
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
		for p := range prune.SegFormerSweepSeq(cfg, s.Step) {
			plan, err := tmpl.Plan(p)
			if !yield(planned(p.Label, res.Pretrained(p), plan, err)) {
				return
			}
		}
	}
	return "SegFormer-" + s.Dataset + "-B2", seq, nil
}

// segformerRetrainedSeq enumerates the retrained switching family
// (B0/B1/B2) for a dataset.
func segformerRetrainedSeq(s Spec) (string, engine.CandidateSeq, error) {
	_, classes, size, err := SegFormerDataset(s.Dataset)
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
		if accs[i], err = accuracy.SegFormerBaseline(v, s.Dataset); err != nil {
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
	return "SegFormer-" + s.Dataset + "-retrained", seq, nil
}

// swinSeq enumerates the Swin pruning sweep for a variant. The paper
// recommends retrained switching for Swin; this sweep exists to quantify
// why (its frontier is steep). Candidates carry plans, as in
// segformerSeq.
func swinSeq(s Spec) (string, engine.CandidateSeq, error) {
	cfg, err := nn.SwinVariant(s.Variant, 150)
	if err != nil {
		return "", nil, err
	}
	res, err := accuracy.NewSwin(s.Variant)
	if err != nil {
		return "", nil, err
	}
	tmpl, err := prune.CompileSwin(cfg, 512, 512)
	if err != nil {
		return "", nil, err
	}
	full := prune.FullSwinPath(cfg)
	seq := func(yield func(engine.Candidate) bool) {
		for p := range prune.SwinSweepSeq(cfg, s.Step) {
			plan, err := tmpl.Plan(p)
			if !yield(planned(p.Label, res.Pretrained(p, full), plan, err)) {
				return
			}
		}
	}
	return "Swin-" + s.Variant, seq, nil
}

// swinRetrainedSeq enumerates the Tiny/Small/Base switching family.
func swinRetrainedSeq(Spec) (string, engine.CandidateSeq, error) {
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

// ofaSeq enumerates the Once-For-All ResNet-50 subnet ladder (the paper's
// Fig. 13).
func ofaSeq(Spec) (string, engine.CandidateSeq, error) {
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
