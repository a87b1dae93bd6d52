package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"vitdyn/internal/graph"
)

// seqOf wraps a candidate slice as a generator.
func seqOf(cands []Candidate) CandidateSeq {
	return func(yield func(Candidate) bool) {
		for _, c := range cands {
			if !yield(c) {
				return
			}
		}
	}
}

func TestCatalogStreamMatchesBatchCatalog(t *testing.T) {
	// 64 candidates, accuracy increasing with cost plus some dominated
	// stragglers — the frontier must match the sequential reference exactly.
	mk := func() []Candidate {
		cands := toyCandidates(64, func(i int) int { return (i + 1) * 10 })
		for i := range cands {
			cands[i].Accuracy = float64(i+1) / 100
			if i%5 == 3 { // dominated: higher cost than i-1, worse accuracy
				cands[i].Accuracy = float64(i) / 200
			}
		}
		return cands
	}
	backend := &countingBackend{}
	want := sequentialCatalog(t, backend, "toy", mk())
	// -1 disabled, 0 default (= disabled too: countingBackend does not
	// declare FLOPsMonotone), 0.4 explicitly enabled.
	for _, margin := range []float64{-1, 0, 0.4} {
		got, st, err := New(backend, 4).CatalogFromSeq(context.Background(), "toy", seqOf(mk()), StreamOptions{PrefilterMargin: margin})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Paths, got.Paths) || want.Model != got.Model {
			t.Fatalf("margin=%v: streamed catalog diverges:\n got %+v\nwant %+v", margin, got.Paths, want.Paths)
		}
		if st.Generated != 64 {
			t.Errorf("margin=%v: generated %d, want 64", margin, st.Generated)
		}
		if st.Generated != st.Prefiltered+st.Costed {
			t.Errorf("margin=%v: stats don't balance: %+v", margin, st)
		}
		if margin <= 0 && st.Prefiltered != 0 {
			t.Errorf("margin=%v: prefilter ran for a non-FLOPsMonotone backend (%d skipped)", margin, st.Prefiltered)
		}
		if st.Admitted < int64(len(want.Paths)) {
			t.Errorf("margin=%v: admitted %d < %d frontier paths", margin, st.Admitted, len(want.Paths))
		}
	}
}

func TestCatalogStreamPrefilterSkipsBackend(t *testing.T) {
	// The FLOPs proxy backend makes cost == the admission metric, so any
	// candidate the filter skips is genuinely dominated: with a strictly
	// worsening tail the filter must skip most of it and the catalog must
	// still match the sequential reference.
	n := 50
	mk := func() []Candidate {
		cands := toyCandidates(n, func(i int) int { return (i + 1) * 100 })
		for i := range cands {
			cands[i].Accuracy = 0.9 - 0.01*float64(i) // worse with every step
		}
		return cands
	}
	backend := FLOPs()
	want := sequentialCatalog(t, backend, "tail", mk())
	// One worker: deterministic arrival order, so the first (best) point
	// is on the admission frontier before any dominated tail arrives.
	got, st, err := New(backend, 1).CatalogFromSeq(context.Background(), "tail", seqOf(mk()), StreamOptions{PrefilterMargin: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Paths, got.Paths) {
		t.Fatalf("prefiltered catalog diverges from the sequential reference:\n got %+v\nwant %+v", got.Paths, want.Paths)
	}
	if st.Prefiltered == 0 {
		t.Fatalf("strictly dominated tail triggered no prefiltering: %+v", st)
	}
	if st.Generated != int64(n) || st.Generated != st.Prefiltered+st.Costed {
		t.Errorf("stats don't balance: %+v", st)
	}
}

// TestPrefilterGatedOnFLOPsMonotone pins the default-margin policy: the
// admission pre-filter engages for backends declaring FLOPsMonotone
// (every built-in does) and stays off for arbitrary backends, whose cost
// ordering the FLOPs proxy cannot be assumed to predict.
func TestPrefilterGatedOnFLOPsMonotone(t *testing.T) {
	mk := func() []Candidate {
		cands := toyCandidates(30, func(i int) int { return (i + 1) * 100 })
		for i := range cands {
			cands[i].Accuracy = 0.9 - 0.01*float64(i) // strictly dominated tail
		}
		return cands
	}
	// FLOPs proxy declares monotonicity: default options must prefilter.
	if fm, ok := FLOPs().(FLOPsMonotone); !ok || !fm.FLOPsMonotone() {
		t.Fatal("FLOPs backend does not declare FLOPsMonotone")
	}
	_, st, err := New(FLOPs(), 1).CatalogFromSeq(context.Background(), "tail", seqOf(mk()), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Prefiltered == 0 {
		t.Errorf("default options did not prefilter on a FLOPsMonotone backend: %+v", st)
	}
	// countingBackend makes no such claim: default options must cost all.
	_, st, err = New(&countingBackend{}, 1).CatalogFromSeq(context.Background(), "tail", seqOf(mk()), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Prefiltered != 0 || st.Costed != 30 {
		t.Errorf("default options prefiltered on an undeclared backend: %+v", st)
	}
	// An explicit margin overrides the gate in both directions.
	_, st, err = New(&countingBackend{}, 1).CatalogFromSeq(context.Background(), "tail", seqOf(mk()), StreamOptions{PrefilterMargin: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Prefiltered == 0 {
		t.Errorf("explicit margin did not enable the prefilter: %+v", st)
	}
	_, st, err = New(FLOPs(), 1).CatalogFromSeq(context.Background(), "tail", seqOf(mk()), StreamOptions{PrefilterMargin: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Prefiltered != 0 {
		t.Errorf("negative margin did not disable the prefilter: %+v", st)
	}
}

// TestCatalogFromSeqStopsEnumerationOnFailure: a candidate failure must
// stop the generator at its next yield instead of enumerating the rest
// of the sweep.
func TestCatalogFromSeqStopsEnumerationOnFailure(t *testing.T) {
	var yielded atomic.Int64
	const total = 10000
	seq := func(yield func(Candidate) bool) {
		for i := 0; i < total; i++ {
			i := i
			yielded.Add(1)
			ok := yield(Candidate{
				Label:    fmt.Sprintf("cand-%05d", i),
				Accuracy: 0.5,
				Build:    func() (*graph.Graph, error) { return linearGraph(i + 1), nil },
			})
			if !ok {
				return
			}
		}
	}
	backend := failingBackend{failInF: 3} // fails almost immediately
	_, _, err := New(backend, 2).CatalogFromSeq(context.Background(), "toy", seq, StreamOptions{PrefilterMargin: -1})
	if err == nil {
		t.Fatal("failure not propagated")
	}
	if n := yielded.Load(); n >= total {
		t.Errorf("generator enumerated all %d candidates despite early failure", n)
	}
}

func TestCatalogStreamPropagatesFailure(t *testing.T) {
	cands := toyCandidates(32, func(i int) int { return i + 1 })
	backend := failingBackend{failInF: 7}
	_, _, err := New(backend, 4).CatalogFromSeq(context.Background(), "toy", seqOf(cands), StreamOptions{PrefilterMargin: -1})
	if err == nil || !strings.Contains(err.Error(), "backend rejected width 7") {
		t.Errorf("err = %v, want the backend failure", err)
	}
	// Build failures too.
	broken := toyCandidates(8, func(i int) int { return i + 1 })
	broken[3].Build = func() (*graph.Graph, error) { return nil, errors.New("no such model") }
	_, _, err = New(&countingBackend{}, 2).CatalogFromSeq(context.Background(), "toy", seqOf(broken), StreamOptions{})
	if err == nil || !strings.Contains(err.Error(), `candidate "cand-003"`) {
		t.Errorf("build failure not propagated: %v", err)
	}
	// Out-of-range accuracy is rejected before costing.
	bad := toyCandidates(4, func(i int) int { return i + 1 })
	bad[2].Accuracy = 1.5
	_, _, err = New(&countingBackend{}, 2).CatalogFromSeq(context.Background(), "toy", seqOf(bad), StreamOptions{})
	if err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
		t.Errorf("bad accuracy not rejected: %v", err)
	}
}

func TestCatalogStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := New(&countingBackend{}, 2).CatalogFromSeq(ctx, "toy",
		seqOf(toyCandidates(100, func(i int) int { return i + 1 })), StreamOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestCatalogStreamEmptyStream(t *testing.T) {
	in := make(chan Candidate)
	close(in)
	_, _, err := New(&countingBackend{}, 2).catalogStream(context.Background(), "empty", in, StreamOptions{})
	if err == nil || !strings.Contains(err.Error(), "at least one path") {
		t.Errorf("empty stream err = %v, want the empty-catalog error", err)
	}
}

func TestGlobalStreamStatsAccumulate(t *testing.T) {
	before := GlobalStreamStats()
	cands := toyCandidates(10, func(i int) int { return i + 1 })
	for i := range cands {
		cands[i].Accuracy = float64(i+1) / 20
	}
	if _, _, err := New(&countingBackend{}, 2).CatalogFromSeq(context.Background(), "toy", seqOf(cands), StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	after := GlobalStreamStats()
	if after.Generated-before.Generated != 10 {
		t.Errorf("global generated delta = %d, want 10", after.Generated-before.Generated)
	}
	if d := after; d.Generated-before.Generated != (d.Prefiltered-before.Prefiltered)+(d.Costed-before.Costed) {
		t.Errorf("global stats don't balance: before %+v after %+v", before, after)
	}
}

// ExampleEngine_CatalogFromSeq demonstrates the streaming pipeline over a
// generator with stats.
func ExampleEngine_CatalogFromSeq() {
	seq := func(yield func(Candidate) bool) {
		for i := 1; i <= 3; i++ {
			i := i
			ok := yield(Candidate{
				Label:    fmt.Sprintf("p%d", i),
				Accuracy: float64(i) / 10,
				Build:    func() (*graph.Graph, error) { return linearGraph(i * 100), nil },
			})
			if !ok {
				return
			}
		}
	}
	cat, st, err := New(FLOPs(), 1).CatalogFromSeq(context.Background(), "demo", seq, StreamOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(cat.Paths), "paths;", st.Generated, "generated")
	// Output: 3 paths; 3 generated
}
