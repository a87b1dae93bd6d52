package serve

import (
	"encoding/json"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"testing"

	"vitdyn/internal/costdb"
	"vitdyn/internal/obs"
)

// statszMetricFor maps every numeric /statsz leaf (canonicalized: map
// keys that are data — routes, window labels — become <route>/<window>,
// array indices become []) to the /metrics series that carries the same
// signal. TestStatszMetricsDrift fails when a statsz leaf appears with
// no entry here or with an entry naming a series the exposition does
// not serve — so a new /statsz field cannot ship without its /metrics
// counterpart.
var statszMetricFor = map[string]string{
	"store.hits":      "vitdyn_store_hits_total",
	"store.misses":    "vitdyn_store_misses_total",
	"store.errors":    "vitdyn_store_errors_total",
	"store.evictions": "vitdyn_store_evictions_total",
	"store.entries":   "vitdyn_store_entries",
	"store.capacity":  "vitdyn_store_capacity",

	"catalog_cache.hits":          "vitdyn_catalog_cache_hits_total",
	"catalog_cache.misses":        "vitdyn_catalog_cache_misses_total",
	"catalog_cache.errors":        "vitdyn_catalog_cache_errors_total",
	"catalog_cache.evictions":     "vitdyn_catalog_cache_evictions_total",
	"catalog_cache.invalidations": "vitdyn_catalog_cache_invalidations_total",
	"catalog_cache.entries":       "vitdyn_catalog_cache_entries",
	"catalog_cache.capacity":      "vitdyn_catalog_cache_capacity",
	"catalog_cache.shards":        "vitdyn_catalog_cache_shards",
	"catalog_cache.hit_rate":      "vitdyn_catalog_cache_hit_ratio",

	"response_cache.hits":          "vitdyn_response_cache_hits_total",
	"response_cache.misses":        "vitdyn_response_cache_misses_total",
	"response_cache.invalidations": "vitdyn_response_cache_invalidations_total",
	"response_cache.evictions":     "vitdyn_response_cache_evictions_total",
	"response_cache.entries":       "vitdyn_response_cache_entries",
	"response_cache.capacity":      "vitdyn_response_cache_capacity",
	"response_cache.shards":        "vitdyn_response_cache_shards",
	"response_cache.hit_rate":      "vitdyn_response_cache_hit_ratio",

	"pools.encode_buffers.hits":     "vitdyn_pool_hits_total",
	"pools.encode_buffers.misses":   "vitdyn_pool_misses_total",
	"pools.status_recorders.hits":   "vitdyn_pool_hits_total",
	"pools.status_recorders.misses": "vitdyn_pool_misses_total",
	"pools.trace_slices.hits":       "vitdyn_pool_hits_total",
	"pools.trace_slices.misses":     "vitdyn_pool_misses_total",

	"server.requests":              "vitdyn_requests_total",
	"server.active":                "vitdyn_http_in_flight",
	"server.sweeps_completed":      "vitdyn_sweeps_completed_total",
	"server.sweeps_rejected":       "vitdyn_sweeps_rejected_total",
	"server.max_concurrent_sweeps": "vitdyn_server_max_concurrent_sweeps",
	"server.workers":               "vitdyn_server_workers",
	"server.uptime_ms":             "vitdyn_uptime_seconds",
	"server.store_hit_rate":        "vitdyn_store_hit_ratio",

	"stream.generated":      "vitdyn_stream_generated_total",
	"stream.prefiltered":    "vitdyn_stream_prefiltered_total",
	"stream.costed":         "vitdyn_stream_costed_total",
	"stream.admitted":       "vitdyn_stream_admitted_total",
	"stream.materialized":   "vitdyn_stream_materialized_total",
	"stream.prefilter_rate": "vitdyn_stream_prefilter_ratio",

	"replay.replays":    "vitdyn_replay_requests_total",
	"replay.traces":     "vitdyn_replay_traces_total",
	"replay.frames":     "vitdyn_replay_frames_total",
	"replay.infeasible": "vitdyn_replay_infeasible_total",

	"persist.exports":            "vitdyn_persist_exports_total",
	"persist.export_errors":      "vitdyn_persist_export_errors_total",
	"persist.imports":            "vitdyn_persist_imports_total",
	"persist.imported_entries":   "vitdyn_persist_imported_entries_total",
	"persist.import_errors":      "vitdyn_persist_import_errors_total",
	"persist.deltas":             "vitdyn_persist_deltas_total",
	"persist.delta_entries_sent": "vitdyn_persist_delta_entries_sent_total",
	"persist.delta_errors":       "vitdyn_persist_delta_errors_total",

	"costdb.loaded_entries":    "vitdyn_costdb_loaded_entries",
	"costdb.entries":           "vitdyn_costdb_entries",
	"costdb.wal_bytes":         "vitdyn_costdb_wal_bytes",
	"costdb.wal_records":       "vitdyn_costdb_wal_records",
	"costdb.appends":           "vitdyn_costdb_appends_total",
	"costdb.disk_hits":         "vitdyn_costdb_disk_hits_total",
	"costdb.compactions":       "vitdyn_costdb_compactions_total",
	"costdb.retired":           "vitdyn_costdb_retired_total",
	"costdb.last_flush_age_ms": "vitdyn_costdb_last_flush_age_seconds",
	"costdb.flush_errors":      "vitdyn_costdb_flush_errors_total",

	"gossip.syncs":            "vitdyn_gossip_syncs_total",
	"gossip.failures":         "vitdyn_gossip_failures_total",
	"gossip.records_received": "vitdyn_gossip_records_received_total",
	"gossip.stale_dropped":    "vitdyn_gossip_stale_dropped_total",
	"gossip.full_syncs":       "vitdyn_gossip_full_syncs_total",
	"gossip.quarantined":      "vitdyn_gossip_quarantined_peers",

	"gossip.peers.[].last_sync_age_ms":     "vitdyn_gossip_peer_last_sync_age_seconds",
	"gossip.peers.[].syncs":                "vitdyn_gossip_peer_syncs_total",
	"gossip.peers.[].failures":             "vitdyn_gossip_peer_failures_total",
	"gossip.peers.[].consecutive_failures": "vitdyn_gossip_peer_consecutive_failures",
	"gossip.peers.[].quarantines":          "vitdyn_gossip_peer_quarantines_total",
	"gossip.peers.[].records_received":     "vitdyn_gossip_peer_records_received_total",
	"gossip.peers.[].stale_dropped":        "vitdyn_gossip_peer_stale_dropped_total",
	"gossip.peers.[].full_syncs":           "vitdyn_gossip_peer_full_syncs_total",

	"requestz.recorded": "vitdyn_requestz_recorded_total",
	"requestz.capacity": "vitdyn_requestz_capacity",

	// The windowed sections: rates and in-window counts surface as the
	// *_window_rate series (labeled by window), the quantiles as the
	// quantile-labeled window duration series, the hit rates as the
	// window hit-ratio gauges. The window's length itself is carried by
	// the same labeled family.
	"windows.<window>.seconds":                 "vitdyn_requests_window_rate",
	"windows.<window>.requests":                "vitdyn_requests_window_rate",
	"windows.<window>.rate_per_sec":            "vitdyn_requests_window_rate",
	"windows.<window>.catalog_cache_hit_rate":  "vitdyn_catalog_cache_window_hit_ratio",
	"windows.<window>.response_cache_hit_rate": "vitdyn_response_cache_window_hit_ratio",

	"windows.<window>.routes.<route>.requests":     "vitdyn_http_requests_window_rate",
	"windows.<window>.routes.<route>.rate_per_sec": "vitdyn_http_requests_window_rate",
	"windows.<window>.routes.<route>.p50_ms":       "vitdyn_http_request_duration_window_seconds",
	"windows.<window>.routes.<route>.p99_ms":       "vitdyn_http_request_duration_window_seconds",
	"windows.<window>.routes.<route>.p999_ms":      "vitdyn_http_request_duration_window_seconds",
}

// windowLabelRE matches the window-label map keys ("1m", "5m", "90s").
var windowLabelRE = regexp.MustCompile(`^[0-9]+(\.[0-9]+)?[a-z0-9.]*$`)

// flattenStatsz walks decoded /statsz JSON into canonicalized numeric
// leaf paths. Map keys that hold data rather than schema — route paths
// and window labels — collapse to placeholders so the table above stays
// finite; array elements collapse to [].
func flattenStatsz(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			key := k
			if strings.HasPrefix(k, "/") {
				key = "<route>"
			} else if strings.HasSuffix(prefix, "windows") && windowLabelRE.MatchString(k) {
				key = "<window>"
			}
			p := key
			if prefix != "" {
				p = prefix + "." + key
			}
			flattenStatsz(p, child, out)
		}
	case []any:
		for _, child := range x {
			flattenStatsz(prefix+".[]", child, out)
		}
	case float64:
		out[prefix] = true
	default:
		// Strings, booleans, nulls: identity and status text, exempt
		// from the numeric-series mapping.
	}
}

// TestStatszMetricsDrift asserts every numeric /statsz leaf has a
// corresponding /metrics series actually present in the exposition, on
// a server with every optional section populated (durable tier, gossip,
// windowed traffic on a real route).
func TestStatszMetricsDrift(t *testing.T) {
	dir := t.TempDir()
	store := NewStore(0)
	db, err := costdb.Open(dir, store, costdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, ts := newTestServer(t, Options{Store: store, DB: db})
	NewGossiper(srv, GossipOptions{Peers: []string{"127.0.0.1:1"}}) // attached, never started

	// Traffic so the windows section has route entries.
	if status, body := get(t, ts.URL+"/v1/catalog?family=segformer&dataset=ADE&step=512&backend=flops"); status != http.StatusOK {
		t.Fatalf("catalog: %d %s", status, body)
	}

	_, statszBody := get(t, ts.URL+"/statsz")
	var statsz any
	if err := json.Unmarshal(statszBody, &statsz); err != nil {
		t.Fatalf("decoding /statsz: %v", err)
	}
	leaves := map[string]bool{}
	flattenStatsz("", statsz, leaves)
	if len(leaves) < 60 {
		t.Fatalf("only %d numeric statsz leaves found — flattening broke?", len(leaves))
	}
	// The windows section must actually have been exercised, or the
	// <window>/<route> table rows go untested.
	for _, want := range []string{"windows.<window>.routes.<route>.p99_ms", "costdb.entries", "gossip.peers.[].syncs"} {
		if !leaves[want] {
			t.Fatalf("expected statsz leaf %s absent — sections not populated (leaves: %v)", want, sortedKeys(leaves))
		}
	}

	_, metricsBody := get(t, ts.URL+"/metrics")
	samples, err := obs.ParseExposition(strings.NewReader(string(metricsBody)))
	if err != nil {
		t.Fatalf("own exposition unparseable: %v", err)
	}
	series := map[string]bool{}
	for _, s := range samples {
		series[s.Name] = true
		// Histogram child series roll up to their family name.
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			series[strings.TrimSuffix(s.Name, suffix)] = true
		}
	}

	for _, leaf := range sortedKeys(leaves) {
		metric, ok := statszMetricFor[leaf]
		if !ok {
			t.Errorf("statsz leaf %s has no /metrics mapping — add the series and the table entry", leaf)
			continue
		}
		if !series[metric] {
			t.Errorf("statsz leaf %s maps to %s, which /metrics does not serve", leaf, metric)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
