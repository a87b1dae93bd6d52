package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"vitdyn/internal/core"
	"vitdyn/internal/engine"
	"vitdyn/internal/rdd"
)

// postReplay posts a ReplayRequest and returns status and body.
func postReplay(t *testing.T, url string, req ReplayRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/replay", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/replay: %v", err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

// TestReplayGoldenMatchesLocalSim is the acceptance check of this PR:
// /v1/replay must return byte-identical SimResult numbers to a local
// replay of the same TraceSpec against the same catalog — the exact
// code path rddsim's replay experiment runs (core catalog build,
// catalog-relative budget scale, spec.Build, Simulate/SimulateStatic).
func TestReplayGoldenMatchesLocalSim(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := rdd.TraceSpec{Kind: "bursty", Frames: 500, BusyFrac: 0.4, Seed: 7}
	status, body := postReplay(t, ts.URL, ReplayRequest{
		Catalog: CatalogRequest{Family: "ofa", Backend: "flops"},
		Trace:   &spec,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var resp ReplayResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0].Policies) != 3 {
		t.Fatalf("results %+v", resp.Results)
	}

	// The local replay, straight through core + rdd, no server.
	cat, _, err := core.Catalog(context.Background(), core.Spec{Family: "ofa"}, engine.FLOPs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	scaled := spec.WithBudgetScale(cat.DefaultBudgetScale())
	tr, err := scaled.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]rdd.SimResult{
		"dynamic":         cat.Simulate(tr),
		"static-full":     cat.SimulateStatic(cat.Full(), tr),
		"static-cheapest": cat.SimulateStatic(cat.Cheapest(), tr),
	}
	got := resp.Results[0]
	if got.Frames != len(tr) {
		t.Errorf("frames %d, want %d", got.Frames, len(tr))
	}
	for _, pol := range got.Policies {
		local, ok := want[pol.Policy]
		if !ok {
			t.Errorf("unexpected policy %q", pol.Policy)
			continue
		}
		servedJSON, _ := json.Marshal(pol.Result)
		localJSON, _ := json.Marshal(local)
		if !bytes.Equal(servedJSON, localJSON) {
			t.Errorf("policy %s: served %s\n  local %s", pol.Policy, servedJSON, localJSON)
		}
		if pol.EffectiveAccuracy != local.EffectiveAccuracy() {
			t.Errorf("policy %s: effective accuracy %v, want %v", pol.Policy, pol.EffectiveAccuracy, local.EffectiveAccuracy())
		}
		if pol.SwitchRate != local.SwitchRate() {
			t.Errorf("policy %s: switch rate %v, want %v", pol.Policy, pol.SwitchRate, local.SwitchRate())
		}
	}
	// The echoed spec carries the substituted budget scale, so the
	// response alone reproduces the run offline.
	if got.Trace.Lo != scaled.Lo || got.Trace.Hi != scaled.Hi {
		t.Errorf("echoed spec %+v not budget-scaled to %+v", got.Trace, scaled)
	}
	// The dynamic policy on a bursty trace over a multi-path catalog
	// must actually switch paths.
	for _, pol := range got.Policies {
		if pol.Policy == "dynamic" && pol.Result.Switches == 0 {
			t.Error("dynamic policy reported zero switches on a bursty trace")
		}
	}
}

func TestReplayBatchAndPolicies(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	status, body := postReplay(t, ts.URL, ReplayRequest{
		Catalog: CatalogRequest{Family: "ofa", Backend: "flops"},
		Traces: []rdd.TraceSpec{
			{Kind: "step", Frames: 100, Stride: 10},
			{Kind: "values", Values: []float64{1e9, 2e9}},
			{Kind: "nope", Frames: 10}, // fails independently
		},
		Policies: []string{"dynamic", "static:ofa-full"},
		Workers:  2,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var resp ReplayResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Model == "" || resp.Paths == 0 || resp.Backend != "flops-proxy" {
		t.Errorf("catalog header %+v", resp)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results %d, want 3", len(resp.Results))
	}
	for i, r := range resp.Results[:2] {
		if r.Error != "" || len(r.Policies) != 2 {
			t.Errorf("item %d: %+v", i, r)
			continue
		}
		if r.Policies[1].Policy != "static:ofa-full" || r.Policies[1].Path != "ofa-full" {
			t.Errorf("item %d pinned policy %+v", i, r.Policies[1])
		}
	}
	if resp.Results[2].Error == "" || !strings.Contains(resp.Results[2].Error, "unknown trace kind") {
		t.Errorf("bad-spec item error %q", resp.Results[2].Error)
	}

	// /statsz surfaces the replay totals: one request, two traces, the
	// sum of their frames.
	stats, statsBody := get(t, ts.URL+"/statsz")
	if stats != http.StatusOK {
		t.Fatalf("statsz status %d", stats)
	}
	var st struct {
		Replay struct {
			Replays    int64 `json:"replays"`
			Traces     int64 `json:"traces"`
			Frames     int64 `json:"frames"`
			Infeasible int64 `json:"infeasible"`
		} `json:"replay"`
	}
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Replay.Replays != 1 || st.Replay.Traces != 2 || st.Replay.Frames != 102 {
		t.Errorf("replay stats %+v", st.Replay)
	}
	_ = srv
}

func TestReplayInfeasibleBudgetIs422(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	// Every budget below the cheapest path: an explicit 422, not a
	// silent all-skipped result.
	status, body := postReplay(t, ts.URL, ReplayRequest{
		Catalog: CatalogRequest{Family: "ofa", Backend: "flops"},
		Trace:   &rdd.TraceSpec{Kind: "values", Values: []float64{0.001, 0.002}},
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422; body %s", status, body)
	}
	if !strings.Contains(string(body), "below cheapest path") {
		t.Errorf("error body %s does not explain the infeasible budget", body)
	}
	if got := srv.replayInfeasible.Load(); got != 1 {
		t.Errorf("infeasible counter %d, want 1", got)
	}
	// The same trace in batch form fails in its slot, not the request.
	status, body = postReplay(t, ts.URL, ReplayRequest{
		Catalog: CatalogRequest{Family: "ofa", Backend: "flops"},
		Traces: []rdd.TraceSpec{
			{Kind: "values", Values: []float64{0.001}},
			{Kind: "values", Values: []float64{1e9}},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("batch status %d, body %s", status, body)
	}
	var resp ReplayResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Results[0].Error, "below cheapest path") || resp.Results[1].Error != "" {
		t.Errorf("batch feasibility split wrong: %+v", resp.Results)
	}
}

func TestReplayStaticFullPathShare(t *testing.T) {
	// The served full_path_share must mean "fraction of completed frames
	// on the full path": 1 for a full-path pin, 0 for a cheapest pin.
	_, ts := newTestServer(t, Options{})
	status, body := postReplay(t, ts.URL, ReplayRequest{
		Catalog:  CatalogRequest{Family: "ofa", Backend: "flops"},
		Trace:    &rdd.TraceSpec{Kind: "step", Frames: 40, Stride: 5},
		Policies: []string{"static-full", "static-cheapest"},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var resp ReplayResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for _, pol := range resp.Results[0].Policies {
		want := 0.0
		if pol.Policy == "static-full" {
			want = 1.0
		}
		if pol.Result.FullPathShare != want {
			t.Errorf("policy %s full_path_share %v, want %v", pol.Policy, pol.Result.FullPathShare, want)
		}
	}
}

func TestReplayFrameLimit(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	// A single absurd frame count is rejected before any allocation —
	// and before the sweep (no sweep slot consumed).
	status, body := postReplay(t, ts.URL, ReplayRequest{
		Catalog: CatalogRequest{Family: "ofa", Backend: "flops"},
		Trace:   &rdd.TraceSpec{Kind: "step", Frames: maxReplayFrames + 1},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", status, body)
	}
	if !strings.Contains(string(body), "between 1 and") {
		t.Errorf("error body %s does not name the per-trace bound", body)
	}
	// Specs are bounded individually BEFORE summing: a huge positive
	// frame count offset by a negative one would otherwise sum under the
	// request-wide ceiling and reach the generator's allocation.
	status, body = postReplay(t, ts.URL, ReplayRequest{
		Catalog: CatalogRequest{Family: "ofa", Backend: "flops"},
		Traces: []rdd.TraceSpec{
			{Kind: "step", Frames: math.MaxInt / 2},
			{Kind: "step", Frames: -math.MaxInt / 2},
		},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("offsetting-frames batch status %d, want 400; body %s", status, body)
	}
	if !strings.Contains(string(body), "between 1 and") {
		t.Errorf("offsetting-frames error body %s does not name the per-trace bound", body)
	}
	// The ceiling is request-wide: a batch of individually-legal traces
	// whose frames sum past the limit is rejected the same way, so
	// fan-out cannot multiply the per-trace allowance.
	half := maxReplayFrames/2 + 1
	status, body = postReplay(t, ts.URL, ReplayRequest{
		Catalog: CatalogRequest{Family: "ofa", Backend: "flops"},
		Traces: []rdd.TraceSpec{
			{Kind: "step", Frames: half},
			{Kind: "step", Frames: half},
		},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("batch status %d, want 400; body %s", status, body)
	}
	if !strings.Contains(string(body), "server limit") {
		t.Errorf("batch error body %s does not name the limit", body)
	}
	if got := srv.sweeps.Load(); got != 0 {
		t.Errorf("oversized requests paid for %d sweeps, want 0", got)
	}
}

func TestReplayRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/replay")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", resp.StatusCode)
	}

	cases := []struct {
		name string
		req  ReplayRequest
		want string
	}{
		{"empty", ReplayRequest{Catalog: CatalogRequest{Family: "ofa"}}, "empty replay"},
		{"both forms", ReplayRequest{
			Catalog: CatalogRequest{Family: "ofa"},
			Trace:   &rdd.TraceSpec{Kind: "step", Frames: 1},
			Traces:  []rdd.TraceSpec{{Kind: "step", Frames: 1}},
		}, "not both"},
		{"bad family", ReplayRequest{
			Catalog: CatalogRequest{Family: "nope"},
			Trace:   &rdd.TraceSpec{Kind: "step", Frames: 1},
		}, "unknown family"},
		{"bad backend", ReplayRequest{
			Catalog: CatalogRequest{Family: "ofa", Backend: "warp"},
			Trace:   &rdd.TraceSpec{Kind: "step", Frames: 1},
		}, "unknown backend"},
		{"bad policy", ReplayRequest{
			Catalog:  CatalogRequest{Family: "ofa", Backend: "flops"},
			Trace:    &rdd.TraceSpec{Kind: "step", Frames: 10},
			Policies: []string{"psychic"},
		}, "unknown policy"},
		{"bad pin", ReplayRequest{
			Catalog:  CatalogRequest{Family: "ofa", Backend: "flops"},
			Trace:    &rdd.TraceSpec{Kind: "step", Frames: 10},
			Policies: []string{"static:nope"},
		}, "no path"},
		{"zero frames", ReplayRequest{
			Catalog: CatalogRequest{Family: "ofa", Backend: "flops"},
			Trace:   &rdd.TraceSpec{Kind: "step"},
		}, "between 1 and"},
		{"negative frames", ReplayRequest{
			Catalog: CatalogRequest{Family: "ofa", Backend: "flops"},
			Trace:   &rdd.TraceSpec{Kind: "step", Frames: -1},
		}, "between 1 and"},
	}
	for _, tc := range cases {
		status, body := postReplay(t, ts.URL, tc.req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, status, body)
			continue
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %s missing %q", tc.name, body, tc.want)
		}
	}
}

// TestReplayHysteresisPolicy: dynamic-hysteresis:<k> replays through
// rdd.SimulateHysteresis — fewer switches than the free controller on
// the same trace, identical frame accounting, same numbers as a local
// simulation.
func TestReplayHysteresisPolicy(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := rdd.TraceSpec{Kind: "bursty", Frames: 500, BusyFrac: 0.5, Seed: 11}
	status, body := postReplay(t, ts.URL, ReplayRequest{
		Catalog:  CatalogRequest{Family: "ofa", Backend: "flops"},
		Trace:    &spec,
		Policies: []string{"dynamic", "dynamic-hysteresis:4"},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var resp ReplayResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0].Policies) != 2 {
		t.Fatalf("results %+v", resp.Results)
	}
	free, damped := resp.Results[0].Policies[0], resp.Results[0].Policies[1]
	if damped.Policy != "dynamic-hysteresis:4" {
		t.Fatalf("policy order %q, %q", free.Policy, damped.Policy)
	}
	if damped.Result.Switches >= free.Result.Switches {
		t.Errorf("hysteresis switches %d did not drop below free %d", damped.Result.Switches, free.Result.Switches)
	}
	if damped.Result.Frames != free.Result.Frames || damped.Result.Completed != free.Result.Completed {
		t.Errorf("frame accounting differs: %+v vs %+v", damped.Result, free.Result)
	}

	// Golden: the served numbers equal a local replay of the echoed spec.
	cat, _, err := core.Catalog(context.Background(), core.Spec{Family: "ofa"}, engine.FLOPs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := resp.Results[0].Trace.Build()
	if err != nil {
		t.Fatal(err)
	}
	if want := cat.SimulateHysteresis(tr, 4); want != damped.Result {
		t.Errorf("served %+v != local %+v", damped.Result, want)
	}
}

// TestReplayHysteresisPolicyValidation: malformed k values are 400s
// before any sweep runs.
func TestReplayHysteresisPolicyValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, name := range []string{"dynamic-hysteresis:", "dynamic-hysteresis:0", "dynamic-hysteresis:-2", "dynamic-hysteresis:two"} {
		status, body := postReplay(t, ts.URL, ReplayRequest{
			Catalog:  CatalogRequest{Family: "ofa", Backend: "flops"},
			Trace:    &rdd.TraceSpec{Kind: "step", Frames: 10},
			Policies: []string{name},
		})
		if status != http.StatusBadRequest || !strings.Contains(string(body), "dynamic-hysteresis") {
			t.Errorf("%s: status %d body %s, want 400 naming the policy form", name, status, body)
		}
	}
	// k=1 is valid (it is just the free controller).
	status, body := postReplay(t, ts.URL, ReplayRequest{
		Catalog:  CatalogRequest{Family: "ofa", Backend: "flops"},
		Trace:    &rdd.TraceSpec{Kind: "step", Frames: 10},
		Policies: []string{"dynamic-hysteresis:1"},
	})
	if status != http.StatusOK {
		t.Errorf("k=1: status %d body %s", status, body)
	}
}

// TestReplayRejectsValuesFile: the server must never resolve a
// client-supplied file path; values-file specs are told to send inline
// values instead.
func TestReplayRejectsValuesFile(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, spec := range []rdd.TraceSpec{
		{Kind: "values-file", Path: "/etc/passwd"},
		{Kind: "values", Values: []float64{1, 2}, Path: "sneaky.csv"},
	} {
		spec := spec
		status, body := postReplay(t, ts.URL, ReplayRequest{
			Catalog: CatalogRequest{Family: "ofa", Backend: "flops"},
			Trace:   &spec,
		})
		if status != http.StatusBadRequest || !strings.Contains(string(body), "client-side") {
			t.Errorf("spec %+v: status %d body %s, want 400 pointing at inline values", spec, status, body)
		}
	}
}
