package serve

// Observability wiring: the server's metrics registry (GET /metrics in
// Prometheus text exposition format), per-route instruments, the
// /versionz build-info endpoint, and the middleware helpers Handler
// uses. Counters that already exist as /statsz sources (store, catalog
// cache, stream, replay, persist, costdb) are re-registered here as
// func-backed series reading the same atomics, so both views report one
// source of truth.

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"vitdyn/internal/obs"
)

// routeMetrics are the pre-resolved per-route instruments the middleware
// records into — handles resolved once at construction, so the per
// request cost is two histogram observes and one counter increment, with
// no registry lookups.
type routeMetrics struct {
	latency *obs.Histogram         // cumulative since boot
	window  *obs.WindowedHistogram // rolling, feeds the 1m/5m series
	status  [6]*obs.Counter        // index 1..5 = 1xx..5xx, 0 = anything else
}

// windowSpec is one rolling-metrics window: its exposition label and
// duration.
type windowSpec struct {
	label string
	dur   time.Duration
}

// windowSpecsFor resolves Options.Window to the exported windows: the
// short window itself plus 5× it (the conventional 1m/5m pair at the
// default).
func windowSpecsFor(short time.Duration) []windowSpec {
	long := 5 * short
	return []windowSpec{
		{label: windowLabel(short), dur: short},
		{label: windowLabel(long), dur: long},
	}
}

// windowLabel renders a duration as a compact label ("1m", "30s",
// "2m30s") for the window= exposition label and /statsz keys.
func windowLabel(d time.Duration) string {
	if d >= time.Minute && d%time.Minute == 0 {
		return fmt.Sprintf("%dm", d/time.Minute)
	}
	return d.String()
}

// windowSlotsFor sizes the shared slot ring: 12 slots per short window
// (a "1m" view refreshes every 5s), with enough slots to answer the
// longest window plus the current partial slot.
func windowSlotsFor(windows []windowSpec) (slot time.Duration, slots int) {
	short, long := windows[0].dur, windows[0].dur
	for _, ws := range windows {
		if ws.dur < short {
			short = ws.dur
		}
		if ws.dur > long {
			long = ws.dur
		}
	}
	slot = short / 12
	if slot <= 0 {
		slot = time.Second
	}
	return slot, int(long/slot) + 1
}

// statusClasses are the status label values, indexed like
// routeMetrics.status.
var statusClasses = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

// classIdx maps an HTTP status code to its routeMetrics.status index.
func classIdx(code int) int {
	if c := code / 100; c >= 1 && c <= 5 {
		return c
	}
	return 0
}

// initMetrics builds the registry: per-route latency histograms and
// status-class counters for the middleware, plus func-backed series over
// every existing /statsz counter. routes must be the exact set served by
// the mux; unknown paths fall into the "other" route so label
// cardinality stays bounded no matter what clients request.
func (s *Server) initMetrics(routes []string) {
	reg := s.metrics
	slot, slots := windowSlotsFor(s.windows)
	quantiles := []struct {
		label string
		q     float64
	}{{"0.5", 0.5}, {"0.99", 0.99}, {"0.999", 0.999}}
	s.routeStats = make(map[string]*routeMetrics, len(routes)+1)
	for _, route := range append(routes, "other") {
		rm := &routeMetrics{
			latency: reg.Histogram("vitdyn_http_request_duration_seconds",
				"HTTP request latency by route.", obs.DefaultLatencyBuckets,
				obs.Label{Key: "route", Value: route}),
			window: obs.NewWindowedHistogram(obs.DefaultLatencyBuckets, slot, slots),
		}
		for i, class := range statusClasses {
			rm.status[i] = reg.Counter("vitdyn_http_requests_total",
				"HTTP requests by route and status class.",
				obs.Label{Key: "route", Value: route},
				obs.Label{Key: "status", Value: class})
		}
		routeLabel := obs.Label{Key: "route", Value: route}
		for _, ws := range s.windows {
			ws := ws
			for _, qt := range quantiles {
				qt := qt
				reg.GaugeFunc("vitdyn_http_request_duration_window_seconds",
					"HTTP request latency quantile over the trailing window, by route.",
					func() float64 { return rm.window.Snapshot(ws.dur).Quantile(qt.q) },
					routeLabel,
					obs.Label{Key: "window", Value: ws.label},
					obs.Label{Key: "quantile", Value: qt.label})
			}
			reg.GaugeFunc("vitdyn_http_requests_window_rate",
				"Requests per second over the trailing window, by route.",
				func() float64 { return float64(rm.window.Snapshot(ws.dur).Count) / ws.dur.Seconds() },
				routeLabel,
				obs.Label{Key: "window", Value: ws.label})
		}
		s.routeStats[route] = rm
	}
	for _, ws := range s.windows {
		ws := ws
		wl := obs.Label{Key: "window", Value: ws.label}
		reg.GaugeFunc("vitdyn_requests_window_rate",
			"Requests per second over the trailing window, all routes.",
			func() float64 {
				var n int64
				for _, rm := range s.routeStats {
					n += rm.window.Snapshot(ws.dur).Count
				}
				return float64(n) / ws.dur.Seconds()
			}, wl)
		reg.GaugeFunc("vitdyn_catalog_cache_window_hit_ratio",
			"Catalog-cache hit rate over the trailing window (0 before any lookup).",
			func() float64 { return windowRatio(s.wCatalogHits, s.wCatalogMisses, ws.dur) }, wl)
		reg.GaugeFunc("vitdyn_response_cache_window_hit_ratio",
			"Response-cache hit rate over the trailing window (0 before any lookup).",
			func() float64 { return windowRatio(s.wRespHits, s.wRespMisses, ws.dur) }, wl)
	}

	counter := func(name, help string, v func() int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v()) })
	}
	gauge := func(name, help string, v func() float64) {
		reg.GaugeFunc(name, help, v)
	}

	counter("vitdyn_requests_total", "Requests accepted across all endpoints.", s.requests.Load)
	gauge("vitdyn_http_in_flight", "Requests currently in flight.",
		func() float64 { return float64(s.active.Load()) })
	counter("vitdyn_sweeps_completed_total", "Catalog sweeps completed.", s.sweeps.Load)
	counter("vitdyn_sweeps_rejected_total", "Sweeps that timed out waiting for a slot.", s.rejected.Load)
	gauge("vitdyn_server_max_concurrent_sweeps", "Server-wide concurrent sweep limit.",
		func() float64 { return float64(s.opts.MaxConcurrentSweeps) })
	gauge("vitdyn_server_workers", "Per-request worker cap.",
		func() float64 { return float64(s.opts.Workers) })
	counter("vitdyn_requestz_recorded_total", "Requests captured by the always-on requestz recorder.", s.requestz.Total)
	gauge("vitdyn_requestz_capacity", "Requestz recent-ring capacity.",
		func() float64 { return float64(s.requestz.Capacity()) })

	counter("vitdyn_stream_generated_total", "Candidates entering the streaming pipeline.", s.streamGenerated.Load)
	counter("vitdyn_stream_prefiltered_total", "Candidates skipped by the FLOPs-proxy admission filter.", s.streamPrefiltered.Load)
	counter("vitdyn_stream_costed_total", "Candidates priced on a backend.", s.streamCosted.Load)
	counter("vitdyn_stream_admitted_total", "Costed candidates admitted to a frontier.", s.streamAdmitted.Load)
	counter("vitdyn_stream_materialized_total", "Candidates whose graph was built (0 when every candidate was priced from its plan).", s.streamMaterial.Load)
	gauge("vitdyn_stream_prefilter_ratio", "Fraction of generated candidates the admission filter saved (0 before traffic).",
		func() float64 { return s.StreamStats().PrefilterRate() })

	counter("vitdyn_replay_requests_total", "/v1/replay requests served.", s.replays.Load)
	counter("vitdyn_replay_traces_total", "Traces simulated by /v1/replay.", s.replayTraces.Load)
	counter("vitdyn_replay_frames_total", "Frames simulated across all replay traces.", s.replayFrames.Load)
	counter("vitdyn_replay_infeasible_total", "Replay traces rejected as budget-infeasible.", s.replayInfeasible.Load)

	counter("vitdyn_persist_exports_total", "Cost-store snapshot exports completed.", s.exports.Load)
	counter("vitdyn_persist_export_errors_total", "Snapshot exports cut off mid-stream.", s.exportErrors.Load)
	counter("vitdyn_persist_imports_total", "Snapshot imports completed.", s.imports.Load)
	counter("vitdyn_persist_imported_entries_total", "Entries new to this server across all imports.", s.importedEntries.Load)
	counter("vitdyn_persist_import_errors_total", "Snapshot imports rejected (bad stream or oversized body).", s.importErrors.Load)
	counter("vitdyn_persist_deltas_total", "Delta exports completed (the gossip pull source).", s.deltas.Load)
	counter("vitdyn_persist_delta_entries_sent_total", "Entries shipped across all delta exports.", s.deltaEntriesSent.Load)
	counter("vitdyn_persist_delta_errors_total", "Delta requests rejected or cut mid-stream.", s.deltaErrors.Load)

	store := s.opts.Store
	counter("vitdyn_store_hits_total", "Cost-store lookups served from a resident entry.", func() int64 { return store.Stats().Hits })
	counter("vitdyn_store_misses_total", "Cost-store lookups that computed their own entry.", func() int64 { return store.Stats().Misses })
	counter("vitdyn_store_errors_total", "Cost-store lookups whose computation failed.", func() int64 { return store.Stats().Errors })
	counter("vitdyn_store_evictions_total", "Cost-store entries dropped under capacity pressure.", func() int64 { return store.Stats().Evictions })
	gauge("vitdyn_store_entries", "Resident cost-store entries.", func() float64 { return float64(store.Len()) })
	gauge("vitdyn_store_capacity", "Cost-store entry capacity.", func() float64 { return float64(store.Stats().Capacity) })
	gauge("vitdyn_store_hit_ratio", "Cost-store hit rate (0 before any lookup).", func() float64 { return store.Stats().HitRate() })

	cc := s.catalog
	counter("vitdyn_catalog_cache_hits_total", "Catalog-cache lookups served from a built catalog.", func() int64 { return cc.Stats().Hits })
	counter("vitdyn_catalog_cache_misses_total", "Catalog builds actually run.", func() int64 { return cc.Stats().Misses })
	counter("vitdyn_catalog_cache_errors_total", "Catalog builds that failed (never cached).", func() int64 { return cc.Stats().Errors })
	counter("vitdyn_catalog_cache_evictions_total", "Catalogs evicted under capacity pressure.", func() int64 { return cc.Stats().Evictions })
	counter("vitdyn_catalog_cache_invalidations_total", "Catalogs dropped on a backend epoch change.", func() int64 { return cc.Stats().Invalidations })
	gauge("vitdyn_catalog_cache_entries", "Resident cached catalogs.", func() float64 { return float64(cc.Len()) })
	gauge("vitdyn_catalog_cache_capacity", "Catalog-cache entry capacity.", func() float64 { return float64(cc.Stats().Capacity) })
	gauge("vitdyn_catalog_cache_shards", "Catalog-cache shard count.", func() float64 { return float64(cc.Stats().Shards) })
	gauge("vitdyn_catalog_cache_hit_ratio", "Catalog-cache hit rate (0 before any lookup).", func() float64 { return cc.Stats().HitRate() })

	rc := s.resp
	counter("vitdyn_response_cache_hits_total", "Requests served from pre-encoded response bytes.", func() int64 { return rc.Stats().Hits })
	counter("vitdyn_response_cache_misses_total", "Cacheable requests that had to encode.", func() int64 { return rc.Stats().Misses })
	counter("vitdyn_response_cache_invalidations_total", "Cached responses dropped on a backend epoch change.", func() int64 { return rc.Stats().Invalidations })
	counter("vitdyn_response_cache_evictions_total", "Cached responses evicted under capacity pressure.", func() int64 { return rc.Stats().Evictions })
	gauge("vitdyn_response_cache_entries", "Resident pre-encoded responses.", func() float64 { return float64(rc.Stats().Entries) })
	gauge("vitdyn_response_cache_capacity", "Response-cache entry capacity.", func() float64 { return float64(rc.Stats().Capacity) })
	gauge("vitdyn_response_cache_shards", "Response-cache shard count.", func() float64 { return float64(rc.Stats().Shards) })
	gauge("vitdyn_response_cache_hit_ratio", "Response-cache hit rate (0 before any lookup).", func() float64 { return rc.Stats().HitRate() })

	poolSeries := func(pool string, v func() PoolCounters) {
		reg.CounterFunc("vitdyn_pool_hits_total", "Pool gets served by a recycled object.",
			func() float64 { return float64(v().Hits) }, obs.Label{Key: "pool", Value: pool})
		reg.CounterFunc("vitdyn_pool_misses_total", "Pool gets that had to allocate.",
			func() float64 { return float64(v().Misses) }, obs.Label{Key: "pool", Value: pool})
	}
	poolSeries("encode_buffers", encBufPoolStats)
	poolSeries("status_recorders", recPoolStats)
	poolSeries("trace_slices", tracePoolCounters)

	if db := s.opts.DB; db != nil {
		counter("vitdyn_costdb_appends_total", "Cost records appended to the WAL.", func() int64 { return db.Stats().Appends })
		counter("vitdyn_costdb_disk_hits_total", "Lookups served from the durable tier.", func() int64 { return db.Stats().DiskHits })
		counter("vitdyn_costdb_compactions_total", "Snapshot compactions completed.", func() int64 { return db.Stats().Compactions })
		counter("vitdyn_costdb_retired_total", "Stale-epoch entries dropped at compaction.", func() int64 { return db.Stats().Retired })
		counter("vitdyn_costdb_flush_errors_total", "Flushes of the durable tier that failed.", func() int64 { return db.Stats().FlushErrors })
		gauge("vitdyn_costdb_entries", "Entries in the durable tier.", func() float64 { return float64(db.Stats().Entries) })
		gauge("vitdyn_costdb_loaded_entries", "Entries warm-booted from disk at open.", func() float64 { return float64(db.Stats().LoadedEntries) })
		gauge("vitdyn_costdb_wal_bytes", "Bytes in the un-compacted WAL tail.", func() float64 { return float64(db.Stats().WALBytes) })
		gauge("vitdyn_costdb_wal_records", "Records in the un-compacted WAL tail.", func() float64 { return float64(db.Stats().WALRecords) })
		gauge("vitdyn_costdb_last_flush_age_seconds", "Seconds since the durable tier last fsynced or compacted.",
			func() float64 { return float64(db.Stats().LastFlushAgeMS) / 1e3 })
	}

	gauge("vitdyn_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	gauge("vitdyn_go_goroutines", "Live goroutines in the serving process.",
		func() float64 { return float64(runtime.NumGoroutine()) })

	v := obs.Version()
	reg.GaugeFunc("vitdyn_build_info", "Build metadata; value is always 1.",
		func() float64 { return 1 },
		obs.Label{Key: "version", Value: v.Version},
		obs.Label{Key: "go_version", Value: v.GoVersion},
		obs.Label{Key: "revision", Value: v.Revision})
}

// routeMetricsFor maps a request path to its pre-resolved instruments;
// unregistered paths share the bounded "other" series.
func (s *Server) routeMetricsFor(path string) *routeMetrics {
	if rm, ok := s.routeStats[path]; ok {
		return rm
	}
	return s.routeStats["other"]
}

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

// handleVersionz serves the binary's build info (module version, Go
// version, VCS revision) as JSON.
func (s *Server) handleVersionz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, obs.Version())
}

// statusRecorder captures the status code and body size flowing through
// a handler, for the middleware's metrics and access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (rec *statusRecorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(p []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	n, err := rec.ResponseWriter.Write(p)
	rec.bytes += int64(n)
	return n, err
}

// Status returns the response status, defaulting to 200 for handlers
// that never called WriteHeader.
func (rec *statusRecorder) Status() int {
	if rec.status == 0 {
		return http.StatusOK
	}
	return rec.status
}

// Flush forwards to the underlying writer when it supports streaming
// (the store-export path does).
func (rec *statusRecorder) Flush() {
	if f, ok := rec.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
