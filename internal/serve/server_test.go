package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vitdyn/internal/core"
	"vitdyn/internal/engine"
	"vitdyn/internal/magnet"
)

// newTestServer returns a server with a fresh store and its httptest
// front end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// get fetches a URL and returns status and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body
}

func TestCatalogEndToEndByteIdenticalAndCached(t *testing.T) {
	// The acceptance check of this PR: a /v1/catalog request must be
	// byte-identical to a direct SegFormer catalog build, and a second
	// overlapping request must be served from the shared store (hit
	// counter > 0, no new backend work).
	srv, ts := newTestServer(t, Options{})
	url := ts.URL + "/v1/catalog?family=segformer&dataset=ADE&step=512&backend=flops&workers=2"

	status, cold := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, cold)
	}
	coldStats := srv.Store().Stats()
	if coldStats.Misses == 0 {
		t.Fatal("cold request computed nothing")
	}

	// Reference build, straight through core + engine, no server.
	direct, _, err := core.Catalog(context.Background(), core.Spec{Family: "segformer", Dataset: "ADE", Step: 512}, engine.FLOPs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var wantBody bytes.Buffer
	if err := json.NewEncoder(&wantBody).Encode(CatalogResponseFor(direct, "flops-proxy", "GMACs")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, wantBody.Bytes()) {
		t.Errorf("served catalog differs from direct build:\n got: %s\nwant: %s", cold, wantBody.Bytes())
	}

	// Second, identical request: byte-identical output, served whole from
	// the catalog cache — no store traffic, no recomputation at all.
	status, warm := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("warm status %d", status)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm response differs from cold response")
	}
	warmStats := srv.Store().Stats()
	if warmStats.Misses != coldStats.Misses {
		t.Errorf("warm request recomputed %d signatures", warmStats.Misses-coldStats.Misses)
	}
	if cc := srv.CatalogCache().Stats(); cc.Hits != 1 || cc.Misses == 0 {
		t.Errorf("warm request not served from the catalog cache: %+v", cc)
	}

	// An overlapping-but-different sweep (coarser channel step: a subset
	// of the same shapes) also reuses the store.
	status, _ = get(t, ts.URL+"/v1/catalog?family=segformer&dataset=ADE&step=256&backend=flops&workers=2")
	if status != http.StatusOK {
		t.Fatalf("overlapping request status %d", status)
	}
	overlapStats := srv.Store().Stats()
	if overlapStats.Hits <= warmStats.Hits {
		t.Error("overlapping sweep shared no costed shapes with the store")
	}
}

func TestCatalogFamilies(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, q := range []string{
		"family=segformer-retrained&dataset=ADE&backend=flops",
		"family=swin-retrained&backend=flops",
		"family=ofa&backend=flops",
	} {
		status, body := get(t, ts.URL+"/v1/catalog?"+q)
		if status != http.StatusOK {
			t.Errorf("%s: status %d, body %s", q, status, body)
			continue
		}
		var resp CatalogResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Errorf("%s: bad JSON: %v", q, err)
			continue
		}
		if resp.Model == "" || len(resp.Paths) == 0 || resp.Backend != "flops-proxy" {
			t.Errorf("%s: degenerate response %+v", q, resp)
		}
	}
}

func TestCatalogBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, q := range []string{
		"family=nope&backend=flops",
		"family=segformer&backend=warp-drive",
		"family=segformer&dataset=Mars&backend=flops",
		"family=segformer&backend=flops&step=abc",
		"family=segformer&backend=magnet-time:Z",
		"family=segformer&backend=gpu:A100",
		"family=segformer&backend=magnet-time:",
	} {
		status, body := get(t, ts.URL+"/v1/catalog?"+q)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", q, status, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %s not a JSON error envelope", q, body)
		}
	}
}

func TestProfileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body := get(t, ts.URL+"/v1/profile?model=segformer-ade-b2")
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var resp ProfileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.GMACs <= 0 || resp.TotalParams <= 0 || resp.BytesPerElem != 2 {
		t.Errorf("degenerate profile %+v", resp)
	}
	if resp.Layers != nil {
		t.Error("layers included without layers=1")
	}
	// Per-layer rows on demand.
	status, body = get(t, ts.URL+"/v1/profile?model=swin-tiny&bytes=1&layers=1")
	if status != http.StatusOK {
		t.Fatalf("layers request status %d", status)
	}
	var withLayers ProfileResponse
	if err := json.Unmarshal(body, &withLayers); err != nil {
		t.Fatal(err)
	}
	if len(withLayers.Layers) == 0 || withLayers.BytesPerElem != 1 {
		t.Errorf("layers=1 returned %d layers, bytes %d", len(withLayers.Layers), withLayers.BytesPerElem)
	}
	// Bad specs are 400s.
	for _, q := range []string{"", "model=hal-9000", "model=resnet-50&bytes=0"} {
		if status, _ := get(t, ts.URL+"/v1/profile?"+q); status != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400", q, status)
		}
	}
}

func TestBackendsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body := get(t, ts.URL+"/v1/backends")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var resp struct {
		Backends []BackendInfo `json:"backends"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	// gpu + flops + 13 accelerators x {time, energy}.
	if len(resp.Backends) != 2+2*13 {
		t.Errorf("%d backends listed, want 28", len(resp.Backends))
	}
	specs := map[string]bool{}
	for _, b := range resp.Backends {
		specs[b.Spec] = true
		if be, err := ResolveBackend(b.Spec); err != nil || be.Name() != b.Name {
			t.Errorf("spec %q does not round-trip: %v", b.Spec, err)
		}
	}
	for _, want := range []string{"gpu", "flops", "magnet-time:E", "magnet-energy:A"} {
		if !specs[want] {
			t.Errorf("backend list missing %q", want)
		}
	}
}

// TestUnitForZeroAllocs pins the unit lookup every cold catalog, batch
// item and replay response makes at zero allocations: it reads the
// backend table in place, while Backends hands each caller its own copy.
func TestUnitForZeroAllocs(t *testing.T) {
	for _, b := range Backends() {
		if got := unitFor(b.Name); got != b.Unit {
			t.Errorf("unitFor(%q) = %q, want %q", b.Name, got, b.Unit)
		}
	}
	name := engine.MagnetEnergy(magnet.AcceleratorE()).Name()
	if allocs := testing.AllocsPerRun(100, func() { unitFor(name) }); allocs != 0 {
		t.Errorf("unitFor allocates %.0f times per call, want 0", allocs)
	}
	mine := Backends()
	mine[0].Unit = "furlongs"
	if Backends()[0].Unit == "furlongs" {
		t.Error("Backends returned the shared table, not a copy")
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 3, MaxConcurrentSweeps: 5})
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Errorf("healthz: %d %s", status, body)
	}
	// Drive one sweep so the counters move.
	if status, _ := get(t, ts.URL+"/v1/catalog?family=ofa&backend=flops"); status != http.StatusOK {
		t.Fatalf("catalog status %d", status)
	}
	status, body = get(t, ts.URL+"/statsz")
	if status != http.StatusOK {
		t.Fatalf("statsz status %d", status)
	}
	var stats statszResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Server.Requests < 3 || stats.Server.SweepsCompleted != 1 {
		t.Errorf("server stats %+v", stats.Server)
	}
	if stats.Server.Workers != 3 || stats.Server.MaxSweeps != 5 {
		t.Errorf("options not reflected in statsz: %+v", stats.Server)
	}
	if stats.Store.Misses == 0 {
		t.Errorf("store stats empty after a sweep: %+v", stats.Store)
	}
	if srv.Store().Stats().Misses != stats.Store.Misses {
		t.Error("statsz store snapshot diverges from Store().Stats()")
	}
	if stats.CatalogCache.Misses != 1 || stats.CatalogCache.Entries != 1 || stats.CatalogCache.Capacity == 0 {
		t.Errorf("catalog_cache stats after one cold catalog: %+v", stats.CatalogCache)
	}
}

// postJSON posts a JSON value and returns status and body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", url, err)
	}
	return resp.StatusCode, body
}

func TestBatchEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	req := BatchRequest{
		Requests: []CatalogRequest{
			{Family: "ofa", Backend: "flops"},
			{Family: "swin-retrained", Backend: "flops"},
			{Family: "segformer", Dataset: "ADE", Step: 512, Backend: "flops"},
		},
		Workers: 2,
	}
	status, body := postJSON(t, ts.URL+"/v1/batch", req)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	// Each item must match its single-request /v1/catalog body exactly.
	for i, q := range []string{
		"family=ofa&backend=flops",
		"family=swin-retrained&backend=flops",
		"family=segformer&dataset=ADE&step=512&backend=flops",
	} {
		if resp.Results[i].Error != "" || resp.Results[i].Catalog == nil {
			t.Fatalf("item %d failed: %+v", i, resp.Results[i])
		}
		status, single := get(t, ts.URL+"/v1/catalog?"+q)
		if status != http.StatusOK {
			t.Fatalf("single request %d: status %d", i, status)
		}
		var want CatalogResponse
		if err := json.Unmarshal(single, &want); err != nil {
			t.Fatal(err)
		}
		got := *resp.Results[i].Catalog
		if got.Model != want.Model || got.Backend != want.Backend || len(got.Paths) != len(want.Paths) {
			t.Errorf("item %d diverges from single request: got %+v, want %+v", i, got, want)
			continue
		}
		for j := range want.Paths {
			if got.Paths[j] != want.Paths[j] {
				t.Errorf("item %d path %d: %+v != %+v", i, j, got.Paths[j], want.Paths[j])
			}
		}
	}
	if srv.CatalogCache().Stats().Hits == 0 {
		t.Error("single requests repeating batch specs shared nothing through the catalog cache")
	}
	// The batch counted one sweep per successful item.
	if got := srv.sweeps.Load(); got < 3 {
		t.Errorf("sweeps counter %d after a 3-item batch", got)
	}
}

func TestBatchEndpointPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := BatchRequest{Requests: []CatalogRequest{
		{Family: "ofa", Backend: "flops"},
		{Family: "nope", Backend: "flops"},
		{Family: "segformer", Backend: "warp-drive"},
	}}
	status, body := postJSON(t, ts.URL+"/v1/batch", req)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s (items fail independently)", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" || resp.Results[0].Catalog == nil {
		t.Errorf("good item failed: %+v", resp.Results[0])
	}
	if !strings.Contains(resp.Results[1].Error, "unknown family") {
		t.Errorf("bad family error = %q", resp.Results[1].Error)
	}
	if !strings.Contains(resp.Results[2].Error, "bad backend") && !strings.Contains(resp.Results[2].Error, "unknown backend") {
		t.Errorf("bad backend error = %q", resp.Results[2].Error)
	}
}

func TestBatchEndpointBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// GET is not allowed.
	if status, _ := get(t, ts.URL+"/v1/batch"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/batch status %d, want 405", status)
	}
	// Empty and malformed bodies are 400s.
	if status, _ := postJSON(t, ts.URL+"/v1/batch", BatchRequest{}); status != http.StatusBadRequest {
		t.Errorf("empty batch status %d, want 400", status)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d, want 400", resp.StatusCode)
	}
}

func TestStatszStreamSection(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	// A fine-step SegFormer sweep exercises the pre-filter.
	if status, _ := get(t, ts.URL+"/v1/catalog?family=segformer&dataset=ADE&step=64&backend=flops"); status != http.StatusOK {
		t.Fatal("catalog request failed")
	}
	status, body := get(t, ts.URL+"/statsz")
	if status != http.StatusOK {
		t.Fatalf("statsz status %d", status)
	}
	var stats statszResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	st := stats.Stream
	if st.Generated == 0 {
		t.Fatal("stream stats empty after a streamed catalog")
	}
	if st.Generated != st.Prefiltered+st.Costed {
		t.Errorf("stream accounting does not balance: %+v", st)
	}
	if st.Prefiltered == 0 || st.PrefilterRate <= 0 {
		t.Errorf("fine-step sweep pre-filtered nothing: %+v", st)
	}
	if got := srv.StreamStats(); got != st.StreamStats {
		t.Errorf("statsz stream snapshot %+v diverges from StreamStats() %+v", st.StreamStats, got)
	}
}

func TestRequestTimeoutReturns504(t *testing.T) {
	// A timeout far smaller than any real sweep forces the catalog
	// request to die on its context deadline.
	_, ts := newTestServer(t, Options{RequestTimeout: time.Nanosecond})
	status, body := get(t, ts.URL+"/v1/catalog?family=ofa&backend=flops")
	if status != http.StatusGatewayTimeout && status != http.StatusServiceUnavailable {
		t.Errorf("status %d (%s), want 504 or 503", status, body)
	}
}

func TestWorkerBudgetClamp(t *testing.T) {
	srv := NewServer(Options{Workers: 4})
	for requested, want := range map[int]int{0: 4, 1: 1, 3: 3, 4: 4, 99: 4, -2: 4} {
		if got := srv.workerBudget(requested); got != want {
			t.Errorf("workerBudget(%d) = %d, want %d", requested, got, want)
		}
	}
}

func TestListenAndServeGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- ListenAndServe(ctx, "127.0.0.1:0", Options{}, func(a net.Addr) {
			addrCh <- a.String()
		})
	}()
	addr := <-addrCh
	if status, _ := get(t, "http://"+addr+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz over ListenAndServe: status %d", status)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down after cancellation")
	}
}
