package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vitdyn/internal/core"
	"vitdyn/internal/costdb"
	"vitdyn/internal/engine"
	"vitdyn/internal/flops"
	"vitdyn/internal/gpu"
	"vitdyn/internal/graph"
	"vitdyn/internal/magnet"
	"vitdyn/internal/nn"
	"vitdyn/internal/obs"
	"vitdyn/internal/rdd"
)

// Options configures a Server. The zero value is usable: it selects a
// fresh DefaultStoreCapacity store, GOMAXPROCS workers, 2×GOMAXPROCS
// concurrent sweeps and a 60-second request timeout.
type Options struct {
	// Store is the cross-request cost store shared by every engine the
	// server creates. Nil selects a fresh NewStore(0).
	Store *Store
	// DB is an optional durable tier (snapshot + WAL on disk) composed
	// over Store: when set, every request engine routes through it, so
	// computed costs survive restarts and /statsz grows a costdb
	// section. Callers open it over the same Store they pass above
	// (cmd/vitdynd's -store-path does) so the store's hit accounting
	// stays coherent. The server never closes it — the owner flushes and
	// closes after ListenAndServe returns.
	DB *costdb.Persistent
	// Workers caps the per-request worker budget: a request may ask for
	// fewer via ?workers=N but never more. <= 0 selects GOMAXPROCS.
	Workers int
	// MaxConcurrentSweeps bounds how many catalog sweeps run at once
	// server-wide; excess requests wait (up to their timeout) for a
	// slot. <= 0 selects 2×GOMAXPROCS.
	MaxConcurrentSweeps int
	// RequestTimeout bounds each request, enforced through its context.
	// <= 0 selects 60 seconds.
	RequestTimeout time.Duration
	// CatalogCacheCapacity bounds the catalog-level result cache (built
	// catalogs keyed by canonicalized request spec + backend epoch; see
	// CatalogCache). <= 0 selects DefaultCatalogCacheCapacity.
	CatalogCacheCapacity int
	// RespCacheCapacity bounds the pre-encoded response cache (finished
	// JSON bytes keyed by exact spec + backend epochs; see RespCache).
	// <= 0 selects DefaultRespCacheCapacity.
	RespCacheCapacity int
	// MaxImportBytes bounds a /v1/store/import request body; a larger
	// body is rejected with 413 before anything enters the store. <= 0
	// selects the 64 MiB default (maxImportBodyBytes).
	MaxImportBytes int64
	// Metrics is the registry GET /metrics exposes; the server registers
	// its per-route instruments and /statsz-backed series into it. Nil
	// selects a fresh registry (per-server metrics). Pass a shared one to
	// fold several servers into a single exposition.
	Metrics *obs.Registry
	// AccessLog, when non-nil, receives one structured line per request.
	// Nil disables access logging (the vitdynd -quiet path).
	AccessLog *obs.AccessLogger
	// Window is the short rolling-metrics window: /metrics and /statsz
	// report per-route latency quantiles, request rates and cache hit
	// rates over this window and over 5× it, alongside the cumulative
	// series. <= 0 selects one minute (windows "1m" and "5m").
	Window time.Duration
	// RequestzCapacity sizes the always-on recent-request ring behind
	// GET /debug/requestz (the slowest-N-per-route tier rides along).
	// <= 0 selects 256.
	RequestzCapacity int
}

// withDefaults resolves the zero-value conveniences.
func (o Options) withDefaults() Options {
	if o.Store == nil {
		o.Store = NewStore(0)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxConcurrentSweeps <= 0 {
		o.MaxConcurrentSweeps = 2 * runtime.GOMAXPROCS(0)
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.MaxImportBytes <= 0 {
		o.MaxImportBytes = maxImportBodyBytes
	}
	if o.Window <= 0 {
		o.Window = time.Minute
	}
	if o.RequestzCapacity <= 0 {
		o.RequestzCapacity = 256
	}
	return o
}

// Server is the vitdynd HTTP serving layer: JSON endpoints over the
// catalog builders and profilers, every sweep engine wired to one shared
// Store so repeated or overlapping requests are near-free. Catalogs are
// built through the streaming pipeline (generate → pre-filter → cost →
// frontier); the server accumulates every request's StreamStats, exposed
// in /statsz.
type Server struct {
	opts       Options
	mux        *http.ServeMux
	sweep      chan struct{} // server-wide concurrent-sweep semaphore
	catalog    *CatalogCache // spec → built catalog result cache
	resp       *RespCache    // spec → pre-encoded response bytes
	start      time.Time
	metrics    *obs.Registry            // the /metrics registry
	routeStats map[string]*routeMetrics // per-route latency + status instruments
	gossip     *Gossiper                // attached by NewGossiper; nil without -peers
	requestz   *obs.Requestz            // always-on recent/slowest request recorder
	windows    []windowSpec             // rolling-metrics windows ("1m", "5m")
	boundAddr  string                   // set by ListenAndServe before serving; "" under httptest

	// rolling-window cache counters (the cumulative ones live in the
	// caches themselves; these feed the "over the last minute" views)
	wCatalogHits   *obs.WindowedCounter
	wCatalogMisses *obs.WindowedCounter
	wRespHits      *obs.WindowedCounter
	wRespMisses    *obs.WindowedCounter

	requests atomic.Int64 // requests accepted (all endpoints)
	active   atomic.Int64 // requests currently in flight
	sweeps   atomic.Int64 // catalog sweeps completed
	rejected atomic.Int64 // sweeps that timed out waiting for a slot

	// streaming-pipeline totals across every catalog built by this server
	streamGenerated   atomic.Int64
	streamPrefiltered atomic.Int64
	streamCosted      atomic.Int64
	streamAdmitted    atomic.Int64
	streamMaterial    atomic.Int64 // candidates whose graph was built

	// server-side RDD replay totals (/v1/replay)
	replays          atomic.Int64 // replay requests served
	replayTraces     atomic.Int64 // traces simulated
	replayFrames     atomic.Int64 // frames simulated across all traces
	replayInfeasible atomic.Int64 // traces rejected: budget below the cheapest path

	// store export/import totals (/v1/store/export, /v1/store/import)
	exports         atomic.Int64 // snapshot exports completed
	exportErrors    atomic.Int64 // exports cut off mid-stream
	imports         atomic.Int64 // snapshot imports completed
	importedEntries atomic.Int64 // entries new to this server across all imports
	importErrors    atomic.Int64 // imports rejected (bad stream, oversized body)

	// delta serving totals (/v1/store/delta, the gossip pull source)
	deltas           atomic.Int64 // delta exports completed
	deltaEntriesSent atomic.Int64 // entries shipped across all deltas
	deltaErrors      atomic.Int64 // delta requests rejected or cut mid-stream
}

// NewServer builds a server over the options (see Options for the
// defaults).
func NewServer(opts Options) *Server {
	s := &Server{
		opts:  opts.withDefaults(),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.sweep = make(chan struct{}, s.opts.MaxConcurrentSweeps)
	s.catalog = NewCatalogCache(s.opts.CatalogCacheCapacity)
	s.resp = NewRespCache(s.opts.RespCacheCapacity)
	// Register every servable backend's epoch up front, so a durable
	// tier configured with engine.StaleEpoch can retire another epoch's
	// entries even before the first request exercises that backend.
	for _, info := range Backends() {
		if b, err := ResolveBackend(info.Spec); err == nil {
			engine.BackendEpoch(b)
		}
	}
	s.metrics = s.opts.Metrics
	s.requestz = obs.NewRequestz(s.opts.RequestzCapacity, 0)
	s.windows = windowSpecsFor(s.opts.Window)
	slot, slots := windowSlotsFor(s.windows)
	s.wCatalogHits = obs.NewWindowedCounter(slot, slots)
	s.wCatalogMisses = obs.NewWindowedCounter(slot, slots)
	s.wRespHits = obs.NewWindowedCounter(slot, slots)
	s.wRespMisses = obs.NewWindowedCounter(slot, slots)
	handlers := map[string]http.HandlerFunc{
		"/healthz":         s.handleHealthz,
		"/statsz":          s.handleStatsz,
		"/metrics":         s.handleMetrics,
		"/fleetz":          s.handleFleetz,
		"/versionz":        s.handleVersionz,
		"/v1/backends":     s.handleBackends,
		"/v1/catalog":      s.handleCatalog,
		"/v1/batch":        s.handleBatch,
		"/v1/replay":       s.handleReplay,
		"/v1/profile":      s.handleProfile,
		"/v1/store/export": s.handleStoreExport,
		"/v1/store/import": s.handleStoreImport,
		"/v1/store/delta":  s.handleStoreDelta,
	}
	routes := make([]string, 0, len(handlers))
	for route, h := range handlers {
		s.mux.HandleFunc(route, h)
		routes = append(routes, route)
	}
	s.initMetrics(routes)
	return s
}

// addStreamStats folds one catalog build's pipeline counters into the
// server totals.
func (s *Server) addStreamStats(st engine.StreamStats) {
	s.streamGenerated.Add(st.Generated)
	s.streamPrefiltered.Add(st.Prefiltered)
	s.streamCosted.Add(st.Costed)
	s.streamAdmitted.Add(st.Admitted)
	s.streamMaterial.Add(st.Materialized)
}

// StreamStats returns the accumulated streaming-pipeline counters of
// every catalog this server has built.
func (s *Server) StreamStats() engine.StreamStats {
	return engine.StreamStats{
		Generated:    s.streamGenerated.Load(),
		Prefiltered:  s.streamPrefiltered.Load(),
		Costed:       s.streamCosted.Load(),
		Admitted:     s.streamAdmitted.Load(),
		Materialized: s.streamMaterial.Load(),
	}
}

// Store returns the server's shared cost store.
func (s *Server) Store() *Store { return s.opts.Store }

// CatalogCache returns the server's catalog-level result cache.
func (s *Server) CatalogCache() *CatalogCache { return s.catalog }

// RespCache returns the server's pre-encoded response cache.
func (s *Server) RespCache() *RespCache { return s.resp }

// Handler returns the server's HTTP handler: observability middleware
// plus a per-request timeout context around the endpoint mux. Every
// request gets an ID (inbound X-Request-ID is honored, otherwise one is
// minted) echoed back in the X-Request-ID response header, a per-route
// latency histogram observation and status-class counter increment, and
// — when an access logger is configured — one structured log line.
// ?debug=trace additionally attaches an obs.Trace to the request
// context; instrumented handlers (the catalog path) record stage spans
// into it and return them in the response body.
//
// A warm GET /v1/catalog with cacheable query params is served before
// the timeout context, trace check and mux dispatch ever run: one
// response-cache probe, one Write of pre-encoded bytes. The middleware
// contract still holds on that path — request ID, histogram, status
// counter and access log all fire (pinned by
// TestMiddlewareFiresOnFastPath) — and with an inbound request ID the
// whole request is allocation-free (TestCatalogFastPathZeroAllocs).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		s.active.Add(1)
		defer s.active.Add(-1)
		start := time.Now()
		// Honor an inbound request ID by reusing its already-parsed header
		// slice — the warm path then carries no per-request strings of its
		// own. Header keys are written in canonical form directly, skipping
		// Set's per-request canonicalization pass.
		h := w.Header()
		var id string
		if vs := r.Header["X-Request-Id"]; len(vs) > 0 && vs[0] != "" {
			id = vs[0]
			h["X-Request-Id"] = vs
		} else {
			id = obs.NewRequestID()
			h["X-Request-Id"] = []string{id}
		}
		if r.Method == http.MethodGet && r.URL.Path == "/v1/catalog" && respCacheableQuery(r.URL.RawQuery) {
			if ent, ok := s.respLookup(respCatalog, r.URL.RawQuery); ok {
				h["Content-Type"] = jsonContentType
				h["Content-Length"] = ent.clen
				w.WriteHeader(http.StatusOK)
				_, _ = w.Write(ent.body)
				s.observe(r, id, start, http.StatusOK, int64(len(ent.body)), nil, true)
				return
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
		defer cancel()
		// Every mux-dispatched request is traced — the requestz recorder
		// keeps the spans so a slow request can be explained after the
		// fact — but only an explicit ?debug=trace echoes the trace block
		// into the response body (cached responses must stay
		// byte-identical to untraced ones). The Contains pre-check keeps
		// the common path free of query parsing; Query().Get confirms an
		// exact match.
		tr := obs.NewTrace(id)
		if strings.Contains(r.URL.RawQuery, "debug=trace") && r.URL.Query().Get("debug") == "trace" {
			tr.SetEcho(true)
		}
		ctx = obs.WithTrace(ctx, tr)
		rec := getStatusRecorder(w)
		s.mux.ServeHTTP(rec, r.WithContext(ctx))
		status, bytes := rec.Status(), rec.bytes
		putStatusRecorder(rec)
		s.observe(r, id, start, status, bytes, tr, false)
	})
}

// observe is the middleware epilogue shared by the fast path and the
// mux path: per-route latency histogram observation (cumulative and
// windowed), status-class counter increment, one requestz record, and
// — when configured — one access-log line. tr is the request's trace
// (nil on the pre-mux fast path); respHit marks a response served from
// pre-encoded bytes. Everything here is allocation-free when tr is
// nil, which is what keeps the warm catalog fast path at 0 allocs/op.
func (s *Server) observe(r *http.Request, id string, start time.Time, status int, bytes int64, tr *obs.Trace, respHit bool) {
	elapsed := time.Since(start)
	rm := s.routeMetricsFor(r.URL.Path)
	rm.latency.ObserveDuration(elapsed)
	rm.window.ObserveDuration(elapsed)
	rm.status[classIdx(status)].Inc()
	spans := tr.Spans() // nil (and allocation-free) on the fast path
	hit := respHit
	for _, sp := range spans {
		if sp.Name == "catalog_cache_hit" {
			hit = true
			break
		}
	}
	s.requestz.Record(obs.RequestRecord{
		ID:       id,
		Route:    s.routeNameFor(r.URL.Path),
		Method:   r.Method,
		Path:     r.URL.Path,
		Query:    r.URL.RawQuery,
		Status:   status,
		Bytes:    bytes,
		Start:    start,
		Duration: elapsed,
		CacheHit: hit,
		Spans:    spans,
	})
	s.opts.AccessLog.Log(obs.AccessEntry{
		Time:       start,
		RequestID:  id,
		Remote:     r.RemoteAddr,
		Method:     r.Method,
		Path:       r.URL.Path,
		Query:      r.URL.RawQuery,
		Route:      s.routeNameFor(r.URL.Path),
		Status:     status,
		Bytes:      bytes,
		DurationMS: float64(elapsed) / float64(time.Millisecond),
	})
}

// respCacheableQuery reports whether a query string may use the
// pre-encoded response cache: no debug/trace request and no explicit
// worker override (?workers= changes build latency, never bytes, but a
// caller tuning workers is profiling, not repeating traffic). The
// literal-substring check is deliberately the same predicate shape the
// trace middleware uses: a response can only embed a trace block when
// "debug=trace" appears literally in RawQuery, and any such query
// fails this check — so a traced response can never be cached, and a
// cached response can never be served to a traced request.
func respCacheableQuery(raw string) bool {
	return !strings.Contains(raw, "debug=") && !strings.Contains(raw, "workers=")
}

// respLookup probes the response cache and feeds the windowed hit/miss
// counters alongside the cache's own cumulative ones. A "" key is a
// request the cache declined (see batchCacheKey): it is not probed, so
// it counts in neither.
func (s *Server) respLookup(kind respKind, key string) (*respEntry, bool) {
	if key == "" {
		return nil, false
	}
	ent, ok := s.resp.lookup(kind, key)
	if ok {
		s.wRespHits.Inc()
	} else {
		s.wRespMisses.Inc()
	}
	return ent, ok
}

// Requestz returns the server's always-on request recorder; vitdynd
// mounts it as GET /debug/requestz on the -debug-addr listener.
func (s *Server) Requestz() *obs.Requestz { return s.requestz }

// routeNameFor returns the bounded route label for a path ("other" for
// unregistered paths), for log lines that must not echo arbitrary client
// paths into an aggregation key.
func (s *Server) routeNameFor(path string) string {
	if _, ok := s.routeStats[path]; ok {
		return path
	}
	return "other"
}

// errorResponse is the uniform JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON renders v through a pooled encode buffer — byte-identical
// to the former direct-to-writer stream, now with an exact
// Content-Length on every JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := encodeJSON(v)
	if err != nil {
		// Nothing has been written yet, so the failure can be reported
		// properly instead of truncating a 200 mid-body.
		writeBuf(w, http.StatusInternalServerError, []byte("{\"error\":\"response encoding failed\"}\n"))
		return
	}
	writeBuf(w, status, buf.Bytes())
	putEncBuf(buf)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// httpStatusFor maps an endpoint error to a status code: context
// expiry means the request ran out of budget, anything else from the
// builders is a server-side failure (bad parameters are rejected with
// 400 before any sweep starts).
func httpStatusFor(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// healthzResponse is the /healthz body. Status is "ok" or "degraded"
// (both served with 200 — degraded means "up but impaired", and load
// balancers should keep routing); Reasons names each impairment.
type healthzResponse struct {
	Status   string   `json:"status"`
	UptimeMS int64    `json:"uptime_ms"`
	Reasons  []string `json:"reasons,omitempty"`
}

// healthStatus computes the daemon's health: degraded when every
// gossip peer is quarantined (the daemon is serving but cut off from
// the fleet) or when the persist tier's flushes are failing (serving
// from memory, durability impaired).
func (s *Server) healthStatus() (string, []string) {
	var reasons []string
	if s.gossip != nil {
		if gs := s.gossip.Stats(); len(gs.Peers) > 0 && gs.Quarantined == len(gs.Peers) {
			reasons = append(reasons, "gossip: all peers quarantined")
		}
	}
	if s.opts.DB != nil {
		if ds := s.opts.DB.Stats(); ds.LastFlushError != "" {
			reasons = append(reasons, "costdb: flush failing: "+ds.LastFlushError)
		}
	}
	if len(reasons) > 0 {
		return "degraded", reasons
	}
	return "ok", nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, reasons := s.healthStatus()
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:   status,
		UptimeMS: time.Since(s.start).Milliseconds(),
		Reasons:  reasons,
	})
}

// statszResponse is the /statsz envelope. Costdb appears only when the
// server runs over a durable tier (-store-path on vitdynd).
type statszResponse struct {
	Store         StoreStats             `json:"store"`
	CatalogCache  catalogCacheStatz      `json:"catalog_cache"`
	ResponseCache respCacheStatz         `json:"response_cache"`
	Pools         poolsStatz             `json:"pools"`
	Server        serverStats            `json:"server"`
	Stream        streamStats            `json:"stream"`
	Replay        replayStats            `json:"replay"`
	Persist       persistStats           `json:"persist"`
	Costdb        *costdb.Stats          `json:"costdb,omitempty"`
	Gossip        *GossipStats           `json:"gossip,omitempty"`
	Requestz      requestzStatz          `json:"requestz"`
	Windows       map[string]windowStatz `json:"windows"`
}

// requestzStatz is the /statsz view of the always-on request recorder.
type requestzStatz struct {
	Recorded int64 `json:"recorded"`
	Capacity int   `json:"capacity"`
}

// windowStatz is one rolling window's /statsz section: totals plus the
// per-route latency quantiles over the trailing window.
type windowStatz struct {
	Seconds              float64                     `json:"seconds"`
	Requests             int64                       `json:"requests"`
	RatePerSec           float64                     `json:"rate_per_sec"`
	CatalogCacheHitRate  float64                     `json:"catalog_cache_hit_rate"`
	ResponseCacheHitRate float64                     `json:"response_cache_hit_rate"`
	Routes               map[string]routeWindowStatz `json:"routes"`
}

// routeWindowStatz is one route's trailing-window latency view. Only
// routes with traffic inside the window appear.
type routeWindowStatz struct {
	Requests   int64   `json:"requests"`
	RatePerSec float64 `json:"rate_per_sec"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	P999MS     float64 `json:"p999_ms"`
}

// windowRatio folds two windowed counters into a hit rate over the
// trailing window (0 before any lookup in the window).
func windowRatio(hits, misses *obs.WindowedCounter, d time.Duration) float64 {
	h, m := hits.Sum(d), misses.Sum(d)
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// windowStats renders every configured rolling window, keyed by label
// ("1m", "5m").
func (s *Server) windowStats() map[string]windowStatz {
	out := make(map[string]windowStatz, len(s.windows))
	for _, ws := range s.windows {
		w := windowStatz{
			Seconds:              ws.dur.Seconds(),
			CatalogCacheHitRate:  windowRatio(s.wCatalogHits, s.wCatalogMisses, ws.dur),
			ResponseCacheHitRate: windowRatio(s.wRespHits, s.wRespMisses, ws.dur),
			Routes:               make(map[string]routeWindowStatz),
		}
		for route, rm := range s.routeStats {
			snap := rm.window.Snapshot(ws.dur)
			if snap.Count == 0 {
				continue
			}
			w.Requests += snap.Count
			w.Routes[route] = routeWindowStatz{
				Requests:   snap.Count,
				RatePerSec: float64(snap.Count) / ws.dur.Seconds(),
				P50MS:      snap.Quantile(0.5) * 1e3,
				P99MS:      snap.Quantile(0.99) * 1e3,
				P999MS:     snap.Quantile(0.999) * 1e3,
			}
		}
		w.RatePerSec = float64(w.Requests) / ws.dur.Seconds()
		out[ws.label] = w
	}
	return out
}

// catalogCacheStatz is the /statsz view of the catalog result cache: the
// raw counters plus the derived hit rate.
type catalogCacheStatz struct {
	CatalogCacheStats
	HitRate float64 `json:"hit_rate"`
}

// respCacheStatz is the /statsz view of the pre-encoded response cache.
type respCacheStatz struct {
	RespCacheStats
	HitRate float64 `json:"hit_rate"`
}

// poolsStatz is the /statsz view of the request-path buffer pools: the
// JSON encode buffers and middleware status recorders (this package)
// and the replay trace slices (internal/rdd, process-wide).
type poolsStatz struct {
	EncodeBuffers   PoolCounters `json:"encode_buffers"`
	StatusRecorders PoolCounters `json:"status_recorders"`
	TraceSlices     PoolCounters `json:"trace_slices"`
}

// tracePoolCounters adapts rdd.TracePoolStats to the /statsz pool shape.
func tracePoolCounters() PoolCounters {
	h, m := rdd.TracePoolStats()
	return PoolCounters{Hits: int64(h), Misses: int64(m)}
}

// persistStats is the /statsz view of snapshot exchange over HTTP.
type persistStats struct {
	Exports          int64 `json:"exports"`
	ExportErrors     int64 `json:"export_errors"`
	Imports          int64 `json:"imports"`
	ImportedEntries  int64 `json:"imported_entries"`
	ImportErrors     int64 `json:"import_errors"`
	Deltas           int64 `json:"deltas"`
	DeltaEntriesSent int64 `json:"delta_entries_sent"`
	DeltaErrors      int64 `json:"delta_errors"`
}

type serverStats struct {
	Requests        int64   `json:"requests"`
	Active          int64   `json:"active"`
	SweepsCompleted int64   `json:"sweeps_completed"`
	SweepsRejected  int64   `json:"sweeps_rejected"`
	MaxSweeps       int     `json:"max_concurrent_sweeps"`
	Workers         int     `json:"workers"`
	UptimeMS        int64   `json:"uptime_ms"`
	StoreHitRate    float64 `json:"store_hit_rate"`
}

// streamStats is the /statsz view of the streaming catalog pipeline:
// the engine counters plus the derived pre-filter rate (the fraction of
// generated candidates whose backend evaluation the FLOPs-proxy admission
// filter saved).
type streamStats struct {
	engine.StreamStats
	PrefilterRate float64 `json:"prefilter_rate"`
}

// replayStats is the /statsz view of server-side RDD replay: how many
// /v1/replay requests completed, and how many traces and frames they
// simulated. Infeasible counts traces rejected because even their
// largest budget sat below the catalog's cheapest path.
type replayStats struct {
	Replays    int64 `json:"replays"`
	Traces     int64 `json:"traces"`
	Frames     int64 `json:"frames"`
	Infeasible int64 `json:"infeasible"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	st := s.opts.Store.Stats()
	stream := s.StreamStats()
	var dbStats *costdb.Stats
	if s.opts.DB != nil {
		ds := s.opts.DB.Stats()
		dbStats = &ds
	}
	cc := s.catalog.Stats()
	rc := s.resp.Stats()
	var gossipStats *GossipStats
	if s.gossip != nil {
		gs := s.gossip.Stats()
		gossipStats = &gs
	}
	writeJSON(w, http.StatusOK, statszResponse{
		Store:         st,
		CatalogCache:  catalogCacheStatz{CatalogCacheStats: cc, HitRate: cc.HitRate()},
		ResponseCache: respCacheStatz{RespCacheStats: rc, HitRate: rc.HitRate()},
		Pools: poolsStatz{
			EncodeBuffers:   encBufPoolStats(),
			StatusRecorders: recPoolStats(),
			TraceSlices:     tracePoolCounters(),
		},
		Server: serverStats{
			Requests:        s.requests.Load(),
			Active:          s.active.Load(),
			SweepsCompleted: s.sweeps.Load(),
			SweepsRejected:  s.rejected.Load(),
			MaxSweeps:       s.opts.MaxConcurrentSweeps,
			Workers:         s.opts.Workers,
			UptimeMS:        time.Since(s.start).Milliseconds(),
			StoreHitRate:    st.HitRate(),
		},
		Stream: streamStats{StreamStats: stream, PrefilterRate: stream.PrefilterRate()},
		Replay: replayStats{
			Replays:    s.replays.Load(),
			Traces:     s.replayTraces.Load(),
			Frames:     s.replayFrames.Load(),
			Infeasible: s.replayInfeasible.Load(),
		},
		Persist: persistStats{
			Exports:          s.exports.Load(),
			ExportErrors:     s.exportErrors.Load(),
			Imports:          s.imports.Load(),
			ImportedEntries:  s.importedEntries.Load(),
			ImportErrors:     s.importErrors.Load(),
			Deltas:           s.deltas.Load(),
			DeltaEntriesSent: s.deltaEntriesSent.Load(),
			DeltaErrors:      s.deltaErrors.Load(),
		},
		Costdb:   dbStats,
		Gossip:   gossipStats,
		Requestz: requestzStatz{Recorded: s.requestz.Total(), Capacity: s.requestz.Capacity()},
		Windows:  s.windowStats(),
	})
}

// BackendInfo describes one servable cost backend.
type BackendInfo struct {
	Spec string `json:"spec"` // the ?backend= value selecting it
	Name string `json:"name"` // the CostBackend.Name() it resolves to
	Unit string `json:"unit"` // cost unit of the catalog it produces
}

// Backends enumerates every backend spec the server accepts, sorted by
// spec. The slice is the caller's own copy.
func Backends() []BackendInfo { return slices.Clone(backendTable()) }

// backendTable is the published backend table, built on first use and
// shared read-only.
var backendTable = sync.OnceValue(func() []BackendInfo {
	infos := []BackendInfo{
		{Spec: "gpu", Name: engine.GPU(gpu.A5000()).Name(), Unit: "ms"},
		{Spec: "flops", Name: engine.FLOPs().Name(), Unit: "GMACs"},
	}
	for _, cfg := range magnet.TableII() {
		infos = append(infos,
			BackendInfo{Spec: "magnet-time:" + cfg.Name, Name: engine.MagnetTime(cfg).Name(), Unit: "ms"},
			BackendInfo{Spec: "magnet-energy:" + cfg.Name, Name: engine.MagnetEnergy(cfg).Name(), Unit: "mJ"},
		)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Spec < infos[j].Spec })
	return infos
})

// ResolveBackend maps a ?backend= spec to a CostBackend:
//
//	gpu                     modeled RTX A5000 latency (default)
//	flops                   analytical GMACs proxy
//	magnet-time[:A..M]      simulated accelerator time (default label E)
//	magnet-energy[:A..M]    simulated accelerator energy
func ResolveBackend(spec string) (engine.CostBackend, error) {
	kind, label, labelled := strings.Cut(spec, ":")
	if labelled && label == "" {
		return nil, fmt.Errorf("bad backend %q: empty accelerator label after colon", spec)
	}
	switch kind {
	case "", "gpu", "flops":
		if labelled {
			return nil, fmt.Errorf("bad backend %q: %s takes no label", spec, kind)
		}
		if kind == "flops" {
			return engine.FLOPs(), nil
		}
		return engine.GPU(gpu.A5000()), nil
	case "magnet-time", "magnet-energy":
		if !labelled {
			label = "E"
		}
		cfg, err := magnet.ByName(label)
		if err != nil {
			return nil, err
		}
		if kind == "magnet-energy" {
			return engine.MagnetEnergy(cfg), nil
		}
		return engine.MagnetTime(cfg), nil
	}
	return nil, fmt.Errorf("unknown backend %q (want gpu, flops, magnet-time[:A-M], magnet-energy[:A-M])", spec)
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]BackendInfo{"backends": Backends()})
}

// CatalogRequest names one catalog build: an execution-path family plus
// its sweep parameters. It is decoded from /v1/catalog query parameters,
// or from a /v1/batch JSON body item.
type CatalogRequest struct {
	Family  string `json:"family"`            // segformer | segformer-retrained | swin | swin-retrained | ofa
	Dataset string `json:"dataset,omitempty"` // segformer families: ADE (default) or City
	Variant string `json:"variant,omitempty"` // swin: Tiny (default), Small, Base
	Step    int    `json:"step,omitempty"`    // pruning sweeps: channel step (0 = family default)
	Backend string `json:"backend,omitempty"` // see ResolveBackend
	Workers int    `json:"workers,omitempty"` // per-request worker budget (0 = server default)
}

// spec is the request's catalog spec.
func (cr CatalogRequest) spec() core.Spec {
	return core.Spec{Family: cr.Family, Dataset: cr.Dataset, Variant: cr.Variant, Step: cr.Step}
}

// withDefaults canonicalizes the request's catalog spec (see
// core.Spec.Canonical), leaving Backend and Workers as given.
func (cr CatalogRequest) withDefaults() CatalogRequest {
	s := cr.spec().Canonical()
	cr.Family, cr.Dataset, cr.Variant, cr.Step = s.Family, s.Dataset, s.Variant, s.Step
	return cr
}

// Seq resolves the request to a catalog name and candidate generator (see
// core.Spec.Seq) — the streaming form the server feeds into
// engine.CatalogFromSeq.
func (cr CatalogRequest) Seq() (string, engine.CandidateSeq, error) { return cr.spec().Seq() }

// CatalogPath is one Pareto-frontier path in a catalog response.
type CatalogPath struct {
	Label    string  `json:"label"`
	Cost     float64 `json:"cost"`
	Accuracy float64 `json:"accuracy"`
}

// TraceBlock is the optional ?debug=trace response section: the request
// ID (also in the X-Request-ID header) and the request's stage spans.
// Span durations are non-overlapping wall-clock segments, so their sum
// never exceeds the request's measured latency.
type TraceBlock struct {
	RequestID  string     `json:"request_id"`
	Spans      []obs.Span `json:"spans"`
	DurationNS int64      `json:"duration_ns"` // trace age at encode time
}

// traceBlockFor renders the context's trace — nil unless the request
// explicitly asked for the echo (?debug=trace). Every request carries
// a trace since the requestz recorder landed, so the echo flag, not
// trace presence, is what keeps cached response bytes identical to
// untraced ones.
func traceBlockFor(ctx context.Context) *TraceBlock {
	tr := obs.ContextTrace(ctx)
	if !tr.Echoed() {
		return nil
	}
	return &TraceBlock{RequestID: tr.ID(), Spans: tr.Spans(), DurationNS: tr.Age().Nanoseconds()}
}

// CatalogResponse is the /v1/catalog body. Apart from the opt-in
// ?debug=trace block, it carries no timing or cache-stats fields by
// design: the body is a pure function of the request, byte-identical
// whether served cold or from the store (reuse is observable in /statsz
// and /metrics instead).
type CatalogResponse struct {
	Model   string        `json:"model"`
	Backend string        `json:"backend"`
	Unit    string        `json:"unit,omitempty"`
	Paths   []CatalogPath `json:"paths"`
	Trace   *TraceBlock   `json:"trace,omitempty"`
}

// CatalogResponseFor converts a built catalog to the response body —
// exported so tests can assert byte-identity against a direct
// core/engine build.
func CatalogResponseFor(cat *rdd.Catalog, backendName, unit string) CatalogResponse {
	resp := CatalogResponse{Model: cat.Model, Backend: backendName, Unit: unit, Paths: []CatalogPath{}}
	for _, p := range cat.Paths {
		resp.Paths = append(resp.Paths, CatalogPath{Label: p.Label, Cost: p.Cost, Accuracy: p.Accuracy})
	}
	return resp
}

// unitFor maps a resolved backend name to its cost unit via the
// published backend table.
func unitFor(backendName string) string {
	for _, b := range backendTable() {
		if b.Name == backendName {
			return b.Unit
		}
	}
	return ""
}

// queryInt parses an optional integer query parameter.
func queryInt(r *http.Request, key string) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: not an integer", key, v)
	}
	return n, nil
}

// workerBudget clamps a requested per-request worker count to
// [1, server cap]; 0 selects the cap.
func (s *Server) workerBudget(requested int) int {
	if requested <= 0 || requested > s.opts.Workers {
		return s.opts.Workers
	}
	return requested
}

// acquireSweepSlot blocks until a server-wide sweep slot frees up or the
// request context expires.
func (s *Server) acquireSweepSlot(ctx context.Context) error {
	select {
	case s.sweep <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.rejected.Add(1)
		return fmt.Errorf("timed out waiting for a sweep slot (%d in flight): %w",
			s.opts.MaxConcurrentSweeps, ctx.Err())
	}
}

func (s *Server) releaseSweepSlot() { <-s.sweep }

// slotError wraps a sweep-slot acquisition failure so handlers sharing
// catalogFor can map it to 503 regardless of where it surfaced.
type slotError struct{ err error }

func (e *slotError) Error() string { return e.err.Error() }
func (e *slotError) Unwrap() error { return e.err }

// catalogFor serves one catalog build through the result cache. The
// fast path — spec resident under the backend's current epoch — is a
// lookup: no sweep slot, no engine, no candidate generation, and (with
// tracing off, the default) zero allocations — pinned by
// TestCatalogCacheHitZeroAllocs and BenchmarkCatalogCacheHit. On a miss
// the build runs under a sweep slot (acquired here unless the caller
// already holds one — batch and replay do, for their whole request) and
// the built catalog is cached for the next identical request; concurrent
// cold requests for one spec share a single build. Build errors are
// returned, never cached.
//
// When the request carries an obs.Trace (?debug=trace), the stages are
// recorded as spans: a cache hit is one catalog_cache_hit span; a miss
// records catalog_cache_miss, sweep_slot_wait, then — when this request
// ran the build — the pipeline's generate/prefilter/cost/frontier
// segments, or build_join when it shared another request's in-flight
// build.
func (s *Server) catalogFor(ctx context.Context, req CatalogRequest, backend engine.CostBackend, model string, seq engine.CandidateSeq, workers int, holdsSlot bool) (*rdd.Catalog, error) {
	tr := obs.ContextTrace(ctx)
	epoch := engine.BackendEpoch(backend)
	key := catalogKeyFor(req, backend.Name())
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	if cat, ok := s.catalog.lookup(key, epoch); ok {
		s.wCatalogHits.Inc()
		if tr != nil {
			tr.AddSpan("catalog_cache_hit", t0, time.Since(t0))
		}
		return cat, nil
	}
	if tr != nil {
		tr.AddSpan("catalog_cache_miss", t0, time.Since(t0))
	}
	if !holdsSlot {
		endWait := tr.Span("sweep_slot_wait")
		err := s.acquireSweepSlot(ctx)
		endWait()
		if err != nil {
			return nil, &slotError{err: err}
		}
		defer s.releaseSweepSlot()
	}
	var timings *engine.StageTimings
	if tr != nil {
		timings = new(engine.StageTimings)
	}
	ran := false
	var buildStart time.Time
	if tr != nil {
		buildStart = time.Now()
	}
	cat, err := s.catalog.getOrBuild(key, epoch, func() (*rdd.Catalog, error) {
		ran = true
		eng := engine.NewWithCache(backend, workers, s.cache())
		cat, st, err := eng.CatalogFromSeq(ctx, model, seq, engine.StreamOptions{Timings: timings})
		s.addStreamStats(st)
		if err != nil {
			return nil, err
		}
		s.sweeps.Add(1)
		return cat, nil
	})
	if tr != nil {
		addBuildSpans(tr, buildStart, time.Since(buildStart), ran, timings)
	}
	if err == nil {
		// Mirror the cache's own accounting: a request that joined
		// another request's in-flight build counts as a hit.
		if ran {
			s.wCatalogMisses.Inc()
		} else {
			s.wCatalogHits.Inc()
		}
	}
	return cat, err
}

// addBuildSpans renders a catalog build into trace spans. When this
// request ran the pipeline, its wall-clock duration is split into
// sequential generate/prefilter/cost/frontier segments proportional to
// the per-stage worker-time totals (summed across concurrent workers,
// so they are scaled down to partition the wall time — span durations
// always sum to the build's real duration, never beyond it), with any
// untimed remainder reported as build_other. A request that joined
// another request's in-flight build has no stage attribution and
// records one build_join span.
func addBuildSpans(tr *obs.Trace, start time.Time, wall time.Duration, ran bool, timings *engine.StageTimings) {
	if !ran {
		tr.AddSpan("build_join", start, wall)
		return
	}
	d := timings.Durations()
	total := d.Total()
	if total <= 0 || wall <= 0 {
		tr.AddSpan("build", start, wall)
		return
	}
	scale := 1.0
	if total > wall {
		scale = float64(wall) / float64(total)
	}
	at := start
	emit := func(name string, stage time.Duration) {
		span := time.Duration(float64(stage) * scale)
		if span <= 0 {
			return
		}
		tr.AddSpan(name, at, span)
		at = at.Add(span)
	}
	emit("generate", d.Generate)
	emit("prefilter", d.Prefilter)
	emit("cost", d.Cost)
	emit("frontier", d.Frontier)
	if rest := wall - at.Sub(start); rest > 0 {
		tr.AddSpan("build_other", at, rest)
	}
}

// writeCatalogError maps a catalogFor failure to its HTTP status: slot
// exhaustion is 503, everything else follows httpStatusFor.
func writeCatalogError(w http.ResponseWriter, model string, err error) {
	var se *slotError
	if errors.As(err, &se) {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeError(w, httpStatusFor(err), "catalog %s: %v", model, err)
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	step, err := queryInt(r, "step")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	workers, err := queryInt(r, "workers")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req := CatalogRequest{
		Family:  q.Get("family"),
		Dataset: q.Get("dataset"),
		Variant: q.Get("variant"),
		Step:    step,
		Backend: q.Get("backend"),
		Workers: workers,
	}
	backend, err := ResolveBackend(req.Backend)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	model, seq, err := req.Seq()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	cat, err := s.catalogFor(r.Context(), req, backend, model, seq, s.workerBudget(req.Workers), false)
	if err != nil {
		writeCatalogError(w, model, err)
		return
	}
	resp := CatalogResponseFor(cat, backend.Name(), unitFor(backend.Name()))
	resp.Trace = traceBlockFor(r.Context())
	// Cacheable specs keep their encoded bytes for the pre-mux fast
	// path: encode once, stash a copy stamped with the backend's epoch,
	// serve this request from the same buffer.
	if resp.Trace == nil && respCacheableQuery(r.URL.RawQuery) {
		if buf, err := encodeJSON(resp); err == nil {
			s.resp.put(respCatalog, r.URL.RawQuery, buf.Bytes(),
				[]epochStamp{{backend: backend, epoch: engine.BackendEpoch(backend)}})
			writeBuf(w, http.StatusOK, buf.Bytes())
			putEncBuf(buf)
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// canonicalCatalogRequest folds a catalog spec to its canonical form —
// defaults resolved by withDefaults, the backend spec replaced
// by its resolved name (so "", "gpu" and any future alias share bytes)
// and the worker budget zeroed (workers change latency, never bytes).
// Unresolvable backends keep their raw spec: the error they produce is
// deterministic too.
func canonicalCatalogRequest(cr CatalogRequest) CatalogRequest {
	cr = cr.withDefaults()
	if b, err := ResolveBackend(cr.Backend); err == nil {
		cr.Backend = b.Name()
	}
	cr.Workers = 0
	return cr
}

// BatchRequest is the POST /v1/batch body: many catalog specs priced in
// one round trip, fanned out through the server's shared cost store so
// overlapping sweeps (trace-replay clients re-pricing a model zoo) reuse
// each other's costed shapes without per-request HTTP overhead.
type BatchRequest struct {
	// Requests are the catalog specs; per-item Workers is ignored in
	// favor of the batch-wide budget below.
	Requests []CatalogRequest `json:"requests"`
	// Workers is the batch-wide worker budget (0 = server default,
	// clamped to the server cap), split between item-level fan-out and
	// each item's sweep pool so the batch's total concurrency never
	// exceeds it.
	Workers int `json:"workers,omitempty"`
}

// BatchResult is one /v1/batch item outcome: the catalog, or the error
// that prevented it (items fail independently; the batch itself still
// succeeds).
type BatchResult struct {
	Catalog *CatalogResponse `json:"catalog,omitempty"`
	Error   string           `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/batch body: one result per request, in
// request order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// handleBatch prices many catalog specs in one request. The batch
// occupies a single server-wide sweep slot and stays inside the request's
// worker budget: the budget is split between item-level fan-out and each
// item's sweep pool (fan × per-item workers <= budget), every engine
// sharing the server store so identical shapes across items are costed
// once.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a JSON body of catalog specs to /v1/batch")
		return
	}
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad batch body: %v", err)
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch: want requests=[{family: ...}, ...]")
		return
	}

	// Warm path: a repeat batch (canonicalized, worker budgets ignored)
	// serves its cached bytes without taking a sweep slot.
	var cacheKey string
	if respCacheableQuery(r.URL.RawQuery) {
		cacheKey = batchCacheKey(req)
		if ent, ok := s.respLookup(respBatch, cacheKey); ok {
			writeEntry(w, ent)
			return
		}
	}

	ctx := r.Context()
	if err := s.acquireSweepSlot(ctx); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer s.releaseSweepSlot()

	workers := s.workerBudget(req.Workers)
	// Split the budget so the batch never exceeds it in total: up to fan
	// items in flight, each sweeping with workers/fan goroutines.
	fan := workers
	if len(req.Requests) < fan {
		fan = len(req.Requests)
	}
	perItem := workers / fan
	results := make([]BatchResult, len(req.Requests))
	stamps := make([]epochStamp, len(req.Requests))
	// Item errors land in their result slot, so ForEachCtx only ever sees
	// the context expiring — that aborts the remaining items.
	err := engine.ForEachCtx(ctx, fan, len(req.Requests), func(i int) error {
		item := req.Requests[i]
		backend, err := ResolveBackend(item.Backend)
		if err != nil {
			results[i] = BatchResult{Error: err.Error()}
			return nil
		}
		model, seq, err := item.Seq()
		if err != nil {
			results[i] = BatchResult{Error: err.Error()}
			return nil
		}
		// The batch already holds its sweep slot; cached items cost a
		// lookup, cold ones build under the item's share of the budget.
		cat, err := s.catalogFor(ctx, item, backend, model, seq, perItem, true)
		if err != nil {
			results[i] = BatchResult{Error: fmt.Sprintf("catalog %s: %v", model, err)}
			return nil
		}
		stamps[i] = epochStamp{backend: backend, epoch: engine.BackendEpoch(backend)}
		resp := CatalogResponseFor(cat, backend.Name(), unitFor(backend.Name()))
		results[i] = BatchResult{Catalog: &resp}
		return nil
	})
	if err != nil {
		writeError(w, httpStatusFor(err), "batch: %v", err)
		return
	}
	resp := BatchResponse{Results: results}
	// Cache only fully-successful batches: per-item errors may be
	// transient (timeouts, slot pressure), and a batch with any failed
	// item has no complete epoch-stamp set to validate against.
	allOK := true
	for i := range results {
		if results[i].Error != "" {
			allOK = false
			break
		}
	}
	if allOK && cacheKey != "" {
		if buf, err := encodeJSON(resp); err == nil {
			s.resp.put(respBatch, cacheKey, buf.Bytes(), stamps)
			writeBuf(w, http.StatusOK, buf.Bytes())
			putEncBuf(buf)
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchCacheKey renders the canonical identity of a batch request —
// every item canonicalized, the batch-wide worker budget dropped — as
// the response-cache key. "" (unmarshalable, or over the key size cap)
// means "do not cache".
func batchCacheKey(req BatchRequest) string {
	canon := BatchRequest{Requests: make([]CatalogRequest, len(req.Requests))}
	for i, item := range req.Requests {
		canon.Requests[i] = canonicalCatalogRequest(item)
	}
	b, err := json.Marshal(canon)
	if err != nil || len(b) > maxRespKeyBytes {
		return ""
	}
	return string(b)
}

// writeEntry serves a cached pre-encoded response: shared Content-Type
// slice, precomputed Content-Length, one Write.
func writeEntry(w http.ResponseWriter, ent *respEntry) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = ent.clen
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ent.body)
}

// BuildModel maps a /v1/profile model spec to a graph:
//
//	segformer-ade-b0..b5    SegFormer at 512x512, 150 classes
//	segformer-city-b0..b5   SegFormer at 1024x1024, 19 classes
//	swin-tiny|small|base    Swin+UPerNet at 512x512, 150 classes
//	resnet-50               ResNet-50 at 224x224 with head
//	detr|dab-detr|anchor-detr|conditional-detr  at 800x1216 (Table I)
func BuildModel(spec string) (*graph.Graph, error) {
	switch spec {
	case "resnet-50":
		return nn.ResNet(nn.ResNet50(1000, true), 224, 224)
	case "detr":
		return nn.DETRModel(nn.DETR, 800, 1216)
	case "dab-detr":
		return nn.DETRModel(nn.DABDETR, 800, 1216)
	case "anchor-detr":
		return nn.DETRModel(nn.AnchorDETR, 800, 1216)
	case "conditional-detr":
		return nn.DETRModel(nn.ConditionalDETR, 800, 1216)
	}
	if v, ok := strings.CutPrefix(spec, "swin-"); ok && v != "" {
		variant := strings.ToUpper(v[:1]) + v[1:]
		cfg, err := nn.SwinVariant(variant, 150)
		if err != nil {
			return nil, err
		}
		return nn.Swin(cfg, 512, 512)
	}
	if rest, ok := strings.CutPrefix(spec, "segformer-"); ok {
		dataset, variant, ok := strings.Cut(rest, "-")
		if ok {
			classes, size := 0, 0
			switch dataset {
			case "ade":
				classes, size = 150, 512
			case "city":
				classes, size = 19, 1024
			}
			if classes > 0 {
				cfg, err := nn.SegFormerB(strings.ToUpper(variant), classes)
				if err != nil {
					return nil, err
				}
				return nn.SegFormer(cfg, size, size)
			}
		}
	}
	return nil, fmt.Errorf("unknown model %q (want segformer-{ade,city}-b0..b5, swin-{tiny,small,base}, resnet-50, or a DETR variant)", spec)
}

// ProfileResponse is the /v1/profile body: the analytical FLOP/parameter
// profile of one model, with per-layer rows included only on request.
type ProfileResponse struct {
	Model        string         `json:"model"`
	Pixels       int            `json:"pixels"`
	BytesPerElem int            `json:"bytes_per_elem"`
	GMACs        float64        `json:"gmacs"`
	MParams      float64        `json:"mparams"`
	TotalMACs    int64          `json:"total_macs"`
	TotalParams  int64          `json:"total_params"`
	ConvMACs     int64          `json:"conv_macs"`
	MatMulMACs   int64          `json:"matmul_macs"`
	LinearMACs   int64          `json:"linear_macs"`
	Layers       []ProfileLayer `json:"layers,omitempty"`
}

// ProfileLayer is one per-layer profile row.
type ProfileLayer struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"`
	MACs      int64   `json:"macs"`
	Params    int64   `json:"params"`
	Intensity float64 `json:"intensity"`
	Frac      float64 `json:"frac"`
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := q.Get("model")
	if spec == "" {
		writeError(w, http.StatusBadRequest, "missing model parameter")
		return
	}
	bytesPerElem, err := queryInt(r, "bytes")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if q.Get("bytes") == "" {
		bytesPerElem = 2
	}
	if bytesPerElem < 1 || bytesPerElem > 8 {
		writeError(w, http.StatusBadRequest, "bad bytes=%d: want 1..8", bytesPerElem)
		return
	}
	g, err := BuildModel(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p := flops.Analyze(g, bytesPerElem)
	resp := ProfileResponse{
		Model:        p.Model,
		Pixels:       p.Pixels,
		BytesPerElem: p.BytesPerElem,
		GMACs:        float64(p.TotalMACs) / 1e9,
		MParams:      float64(p.TotalParams) / 1e6,
		TotalMACs:    p.TotalMACs,
		TotalParams:  p.TotalParams,
		ConvMACs:     p.ConvMACs,
		MatMulMACs:   p.MatMulMACs,
		LinearMACs:   p.LinearMACs,
	}
	if q.Get("layers") == "1" || q.Get("layers") == "true" {
		for _, l := range p.Layers {
			resp.Layers = append(resp.Layers, ProfileLayer{
				Name: l.Name, Kind: l.Kind.String(),
				MACs: l.MACs, Params: l.Params,
				Intensity: l.Intensity, Frac: l.Frac,
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ListenAndServe runs a fresh server on addr until ctx is cancelled,
// then drains in-flight requests (bounded by the request timeout) and
// returns. onListen, if non-nil, is called with the bound address before
// serving — callers use it to learn the port when addr ends in ":0".
func ListenAndServe(ctx context.Context, addr string, opts Options, onListen func(net.Addr)) error {
	return NewServer(opts).ListenAndServe(ctx, addr, onListen)
}

// ListenAndServe runs this server on addr until ctx is cancelled (see the
// package-level ListenAndServe). Constructing the server first keeps its
// counters — store, stream, request stats — readable after shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string, onListen func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Written before any handler goroutine exists, so /fleetz can label
	// this daemon's own row with its bound address without synchronization.
	s.boundAddr = ln.Addr().String()
	if onListen != nil {
		onListen(ln.Addr())
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), s.opts.RequestTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	<-errCh // always http.ErrServerClosed after Shutdown
	return nil
}
