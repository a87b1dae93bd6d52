package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"vitdyn/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{xs, 50, 50},
		{xs, 99, 99},
		{xs, 100, 100},
		{xs, 0.5, 1},
		{[]float64{7}, 99, 7},
		{[]float64{1, 2, 3, 4}, 50, 2},
		{[]float64{1, 2, 3, 4}, 51, 3},
		{nil, 50, 0},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTailSampleRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		tail int
		ok   bool
	}{
		{1000, 99, 10, true},
		{999, 99, 9, false},
		{1100, 99, 11, true},
		{100, 99, 1, false},
		{20, 50, 10, true},
		{0, 99, 0, false},
	} {
		if got := tailSamples(c.n, c.p); got != c.tail {
			t.Errorf("tailSamples(%d, %v) = %d, want %d", c.n, c.p, got, c.tail)
		}
		if got := tailSupported(c.n, c.p); got != c.ok {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

func TestSelfTimeOverlappingSpans(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		self     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 30}, {20, 50}}, 60},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"clipped", []interval{{-50, 10}, {90, 150}}, 80},
		{"outside", []interval{{200, 300}}, 100},
		{"unsorted", []interval{{60, 70}, {10, 30}, {20, 50}, {90, 120}}, 40},
		{"whole", []interval{{0, 100}, {0, 100}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.self {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.self)
		}
	}
}

func TestJoinedLayersAccountForClientTime(t *testing.T) {
	jr := joinedRequest{
		Client:  span{Start: 0, End: 1000},
		Handler: span{Start: 100, End: 900},
		Stages: []span{
			{Name: "catalog_cache_miss", Start: 110, End: 120},
			{Name: "generate", Start: 150, End: 300},
			{Name: "cost", Start: 300, End: 700},
		},
	}
	got := jr.selfTimes()
	want := map[string]int64{
		"client.self":              200,
		"serve.handler.self":       240,
		"stage.catalog_cache_miss": 10,
		"stage.generate":           150,
		"stage.cost":               400,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != 1000 {
		t.Errorf("layers sum to %d, want the client's 1000", sum)
	}

	// A handler span reaching past the client's (clock skew) is clipped,
	// so the layers still sum to the client-measured duration.
	jr.Handler = span{Start: 100, End: 1100}
	sum = 0
	for _, v := range jr.selfTimes() {
		sum += v
	}
	if sum != 1000 {
		t.Errorf("skewed: layers sum to %d, want 1000", sum)
	}
}

// resolves checks a spec resolves through the serving layer's own
// parsers, as the daemon resolves it.
func resolves(t *testing.T, s Spec) {
	t.Helper()
	if _, err := serve.ResolveBackend(s.Backend); err != nil {
		t.Fatalf("%s: backend: %v", s.Query(), err)
	}
	if _, _, err := s.Request().Seq(); err != nil {
		t.Fatalf("%s: Seq: %v", s.Query(), err)
	}
}

func TestEverySpecResolves(t *testing.T) {
	for _, s := range universe() {
		resolves(t, s)
	}
	in := NewInputs(3)
	for _, e := range in.Pool {
		for _, s := range e.Specs() {
			resolves(t, s)
		}
	}
	for _, it := range in.Mixed(20_000) {
		switch it.Kind {
		case "replay":
			resolves(t, it.Replay.Catalog)
			if _, err := it.Replay.Trace.Build(); err != nil {
				t.Fatalf("replay trace: %v", err)
			}
		case "build":
			resolves(t, it.Build)
		}
	}
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	a, b, c := NewInputs(7), NewInputs(7), NewInputs(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different inputs")
	}
	if reflect.DeepEqual(a.Cold[:100], c.Cold[:100]) {
		t.Fatal("different seeds drew the same cold stream")
	}
	if !reflect.DeepEqual(a.Mixed(5000), b.Mixed(5000)) {
		t.Fatal("the same seed drew different mixed schedules")
	}
}

func TestColdAndFleetStreamsHaveNoDuplicates(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		in := NewInputs(seed)
		seen := map[string]bool{}
		for _, e := range in.Pool {
			for _, s := range e.Specs() {
				if seen[s.Query()] {
					t.Fatalf("seed %d: pool repeats %s", seed, s.Query())
				}
				seen[s.Query()] = true
			}
		}
		if len(in.Pool) != poolSize {
			t.Fatalf("pool has %d entries, want %d", len(in.Pool), poolSize)
		}
		for _, s := range in.Cold {
			if seen[s.Query()] {
				t.Fatalf("seed %d: cold stream repeats %s or shares it with the pool", seed, s.Query())
			}
			seen[s.Query()] = true
		}
		var builds []string
		for _, it := range in.Mixed(50_000) {
			if it.Kind == "build" {
				builds = append(builds, it.Build.Query())
			}
		}
		if len(builds) == 0 {
			t.Fatal("mixed schedule has no builds")
		}
		sort.Strings(builds)
		for i := 1; i < len(builds); i++ {
			if builds[i] == builds[i-1] {
				t.Fatalf("seed %d: mixed builds repeat %s", seed, builds[i])
			}
		}
	}

	const specs = 500
	touches := map[int][]FleetItem{}
	for pos, it := range FleetOrder(specs) {
		if len(touches[it.Spec]) != it.Touch {
			t.Fatalf("spec %d: touch %d out of order at %d", it.Spec, it.Touch, pos)
		}
		touches[it.Spec] = append(touches[it.Spec], it)
	}
	if len(touches) != specs {
		t.Fatalf("fleet touched %d specs, want %d", len(touches), specs)
	}
	for s, ts := range touches {
		daemons := map[int]bool{}
		for _, it := range ts {
			daemons[it.Daemon] = true
		}
		if len(ts) != fleetDaemons || len(daemons) != fleetDaemons {
			t.Fatalf("spec %d: %d touches on %d daemons, want %d on %d", s, len(ts), len(daemons), fleetDaemons, fleetDaemons)
		}
	}
}

func TestChecksRejectBadOutput(t *testing.T) {
	good := `{"model":"m","backend":"b","paths":[{"label":"a","cost":1,"accuracy":0.5},{"label":"b","cost":2,"accuracy":0.6}]}`
	if err := checkCatalog([]byte(good)); err != nil {
		t.Fatalf("good catalog rejected: %v", err)
	}
	for _, bad := range []string{
		`{"model":"m","paths":[]}`,
		`{"model":"m","paths":[{"label":"a","cost":2},{"label":"b","cost":1}]}`,
		`not json`,
	} {
		if checkCatalog([]byte(bad)) == nil {
			t.Errorf("bad catalog accepted: %s", bad)
		}
	}
	replay := func(frames int) []byte {
		r := serve.ReplayResponse{Results: []serve.ReplayTraceResult{{Frames: frames}}}
		for _, p := range []string{"dynamic", "static-full", "static-cheapest"} {
			pr := serve.ReplayPolicyResult{Policy: p}
			pr.Result.Frames = frames
			r.Results[0].Policies = append(r.Results[0].Policies, pr)
		}
		b, _ := json.Marshal(r)
		return b
	}
	if err := checkReplay(100)(replay(100)); err != nil {
		t.Fatalf("good replay rejected: %v", err)
	}
	if checkReplay(100)(replay(99)) == nil {
		t.Error("replay with the wrong frame count accepted")
	}
	if equalTo([]byte("a"))([]byte("b")) == nil {
		t.Error("equalTo accepted different bodies")
	}
}

// benchmarkFile is BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func TestBenchmarkJSONParses(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the command runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not runnable", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of 1-200 characters", w.Name)
		}
	}
	var maxBound, setupBound float64
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must carry the largest bound (%v < %v)", setupBound, maxBound)
	}
}

// metricSet checks a run's metrics are exactly the listed ones, with
// the listed units.
func metricSet(t *testing.T, what string, got map[string]metric, units map[string]string) {
	t.Helper()
	for name, unit := range units {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: %s not reported", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s in %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := units[name]; !ok {
			t.Errorf("%s: %s reported but not in BENCHMARK.json", what, name)
		}
	}
}

func TestReportedMetricsMatchBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkFile(t)
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}

	now := time.Now()
	s := sample{kind: "hit/catalog", due: now, dispatched: now, sent: now, end: now.Add(time.Millisecond)}
	m := measured{phase: phase{samples: []sample{s}, wall: time.Second, specs: 1}}
	res, _ := endToEnd(m, []float64{1})
	metricSet(t, "end-to-end", res.Metrics, e2e)

	e := &env{ctx: context.Background(), work: t.TempDir(), in: NewInputs(1)}
	got := layerMetrics(m, m, joined{})
	lad, err := runLadder(e, workloads["warm"], filepath.Join(e.work, "store"))
	if err != nil {
		t.Fatalf("ladder: %v", err)
	}
	for k, v := range lad {
		got[k] = v
	}
	metricSet(t, "per-layer", got, layer)
}
