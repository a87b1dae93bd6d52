package core

import (
	"math"
	"reflect"
	"testing"

	"vitdyn/internal/prune"
)

// switchCanonical is the per-family switch the family table replaced,
// kept as the reference Canonical must agree with.
func switchCanonical(s Spec) Spec {
	step := s.Step
	switch s.Family {
	case "segformer", "segformer-retrained":
		s.Variant = ""
		if s.Dataset == "" {
			s.Dataset = "ADE"
		}
		if s.Family == "segformer-retrained" || s.Step == prune.DefaultSegFormerStep {
			s.Step = 0
		}
	case "swin":
		s.Dataset = ""
		if s.Variant == "" {
			s.Variant = "Tiny"
		}
		if s.Step == prune.DefaultSwinStep {
			s.Step = 0
		}
	case "swin-retrained", "ofa":
		s.Dataset, s.Variant, s.Step = "", "", 0
	}
	if step < 0 {
		s.Step = step
	}
	return s
}

// seqSummary is what a spec's Seq yields, cut to its first 32 candidates:
// the generator is stopped there, so fine steps stay cheap.
type seqSummary struct {
	err    bool
	model  string
	labels []string
	accs   []uint64 // accuracy bits
}

func summarize(s Spec) seqSummary {
	model, seq, err := s.Seq()
	if err != nil {
		return seqSummary{err: true}
	}
	sum := seqSummary{model: model}
	for c := range seq {
		sum.labels = append(sum.labels, c.Label)
		sum.accs = append(sum.accs, math.Float64bits(c.Accuracy))
		if len(sum.labels) == 32 {
			break
		}
	}
	return sum
}

// FuzzSpecCanonical checks canonicalization against the catalogs it
// names. For a fuzzed spec s and a second spec sharing its family:
// Canonical is idempotent and agrees with the per-family switch it
// replaced; a negative step survives it and Seq rejects it; and specs
// that canonicalize equal — s and its canonical form always, the two
// specs when they do — yield the same error-ness, model name, and labels
// and accuracies of their first 32 candidates.
func FuzzSpecCanonical(f *testing.F) {
	for _, fam := range families {
		f.Add(fam.name, "", "", 0, "", "", 0)
	}
	for _, seed := range []struct {
		family, dataset, variant string
		step                     int
		dataset2, variant2       string
		step2                    int
	}{
		// The cases of serve's TestCatalogSpecsCanonicalizePerFamily.
		{"ofa", "", "", 9, "City", "Base", 0},
		{"swin", "", "", 0, "City", "", 256},
		{"swin", "", "", -3, "", "", 0},
		{"ofa", "", "", -1, "", "", -2},
		// Explicit defaults, and steps from the benchmark's ranges.
		{"segformer", "", "", 128, "ADE", "Tiny", 0},
		{"segformer", "ADE", "", 768, "City", "", 1023},
		{"segformer-retrained", "City", "", 900, "City", "Base", 0},
		{"swin", "", "Small", 511, "", "Base", 384},
		{"swin", "Tiny", "", 1, "ADE", "Tiny", 1},
	} {
		f.Add(seed.family, seed.dataset, seed.variant, seed.step, seed.dataset2, seed.variant2, seed.step2)
	}
	f.Fuzz(func(t *testing.T, family, dataset, variant string, step int, dataset2, variant2 string, step2 int) {
		s := Spec{Family: family, Dataset: dataset, Variant: variant, Step: step}
		c := s.Canonical()
		if again := c.Canonical(); again != c {
			t.Fatalf("Canonical not idempotent: %+v -> %+v -> %+v", s, c, again)
		}
		if want := switchCanonical(s); c != want {
			t.Fatalf("Canonical(%+v) = %+v, want %+v", s, c, want)
		}
		if step < 0 {
			if c.Step != step {
				t.Fatalf("negative step %d canonicalized to %d", step, c.Step)
			}
			if _, _, err := c.Seq(); err == nil {
				t.Fatalf("Seq accepted negative step %d", step)
			}
			return
		}
		sum := summarize(s)
		if got := summarize(c); !reflect.DeepEqual(sum, got) {
			t.Fatalf("%+v and its canonical form %+v yield different catalogs:\n%+v\n%+v", s, c, sum, got)
		}
		s2 := Spec{Family: family, Dataset: dataset2, Variant: variant2, Step: step2}
		if s2.Canonical() == c {
			if got := summarize(s2); !reflect.DeepEqual(sum, got) {
				t.Fatalf("%+v and %+v canonicalize equal but yield different catalogs:\n%+v\n%+v", s, s2, sum, got)
			}
		}
	})
}
