package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vitdyn/internal/engine"
	"vitdyn/internal/rdd"
)

// testCatalog builds a trivial two-path catalog for unit tests.
func testCatalog(t *testing.T, model string) *rdd.Catalog {
	t.Helper()
	cat, err := rdd.NewCatalog(model, []rdd.Path{
		{Label: "small", Cost: 1, Accuracy: 0.5},
		{Label: "big", Cost: 4, Accuracy: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestCatalogRepeatIsZeroWorkAndEpochBumpRebuilds is the tentpole
// acceptance check: a repeated identical /v1/catalog request is served
// entirely from the pre-encoded response cache — zero backend
// evaluations, zero generated candidates, zero encodes; the catalog
// cache is not even consulted — while a backend cost-model epoch change
// invalidates both cache tiers and forces a full rebuild of the same
// spec.
func TestCatalogRepeatIsZeroWorkAndEpochBumpRebuilds(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	url := ts.URL + "/v1/catalog?family=segformer&backend=flops"

	status, cold := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("cold status %d, body %s", status, cold)
	}
	evalsCold := engine.BackendEvals()
	genCold := srv.StreamStats().Generated
	if genCold == 0 {
		t.Fatal("cold build generated no candidates; test is vacuous")
	}

	status, warm := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("warm status %d", status)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm response differs from cold response")
	}
	if d := engine.BackendEvals() - evalsCold; d != 0 {
		t.Errorf("warm repeat performed %d backend evaluations, want 0", d)
	}
	if d := srv.StreamStats().Generated - genCold; d != 0 {
		t.Errorf("warm repeat generated %d candidates, want 0", d)
	}
	if rc := srv.RespCache().Stats(); rc.Hits != 1 || rc.Misses != 1 {
		t.Errorf("response-cache accounting: %+v, want 1 hit / 1 miss", rc)
	}
	// The warm repeat never reached the catalog cache: the byte tier
	// answered first.
	if cc := srv.CatalogCache().Stats(); cc.Hits != 0 || cc.Misses != 1 {
		t.Errorf("catalog-cache accounting: %+v, want 0 hits / 1 miss", cc)
	}

	// A cost-model epoch change (simulated via the process-wide salt)
	// must invalidate the resident response bytes AND the resident
	// catalog, then rebuild the same spec — byte-identically, since the
	// pipeline is deterministic.
	engine.SetEpochSalt(123)
	defer engine.SetEpochSalt(0)
	status, bumped := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("post-bump status %d", status)
	}
	if !bytes.Equal(cold, bumped) {
		t.Error("post-bump response differs (pipeline should be deterministic across epochs)")
	}
	if rc := srv.RespCache().Stats(); rc.Invalidations != 1 {
		t.Errorf("epoch bump response-cache accounting: %+v, want 1 invalidation", rc)
	}
	cc := srv.CatalogCache().Stats()
	if cc.Invalidations != 1 || cc.Misses != 2 {
		t.Errorf("epoch bump accounting: %+v, want 1 invalidation / 2 misses", cc)
	}
	if d := srv.StreamStats().Generated - genCold; d == 0 {
		t.Error("epoch bump did not force a rebuild (no candidates generated)")
	}
}

// TestReplayRepeatHitsCatalogCache: a repeated replay of one spec
// rebuilds nothing — the first repeat is served straight from the
// pre-encoded response cache (no catalog lookup, no simulated frame),
// and the underlying catalog was built exactly once.
func TestReplayRepeatHitsCatalogCache(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	body := `{"catalog":{"family":"segformer","backend":"flops"},"trace":{"kind":"step","frames":32},"policies":["dynamic"]}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/replay", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay %d status %d", i, resp.StatusCode)
		}
	}
	gen := srv.StreamStats().Generated
	framesBefore := srv.replayFrames.Load()
	resp, err := http.Post(ts.URL+"/v1/replay", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rc := srv.RespCache().Stats(); rc.Hits < 2 {
		t.Errorf("replay repeats not served from the response cache: %+v", rc)
	}
	if cc := srv.CatalogCache().Stats(); cc.Misses != 1 {
		t.Errorf("replay repeats rebuilt the catalog: %+v", cc)
	}
	if d := srv.StreamStats().Generated - gen; d != 0 {
		t.Errorf("repeated replay generated %d candidates, want 0", d)
	}
	if d := srv.replayFrames.Load() - framesBefore; d != 0 {
		t.Errorf("warm replay simulated %d frames, want 0", d)
	}
}

func TestCatalogCacheEpochMismatchInvalidates(t *testing.T) {
	c := NewCatalogCache(4)
	key := catalogKey{family: "f", dataset: "ADE", variant: "Tiny", backend: "b"}
	want := testCatalog(t, "m")
	built := 0
	build := func() (*rdd.Catalog, error) { built++; return want, nil }

	if got, err := c.getOrBuild(key, 1, build); err != nil || got != want {
		t.Fatalf("getOrBuild = %v, %v", got, err)
	}
	if got, ok := c.lookup(key, 1); !ok || got != want {
		t.Fatalf("same-epoch lookup = %v, %v", got, ok)
	}
	// A lookup under a new epoch drops the stale entry instead of
	// serving it, and the following build replaces it.
	if _, ok := c.lookup(key, 2); ok {
		t.Fatal("stale-epoch lookup returned the old catalog")
	}
	if got, err := c.getOrBuild(key, 2, build); err != nil || got != want {
		t.Fatalf("post-bump getOrBuild = %v, %v", got, err)
	}
	st := c.Stats()
	if built != 2 || st.Invalidations != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Errorf("built %d, stats %+v; want 2 builds, 1 invalidation, 1 hit, 2 misses", built, st)
	}
	// getOrBuild itself must also invalidate a mismatched resident entry
	// (the caller may never have taken the lookup fast path).
	if _, err := c.getOrBuild(key, 3, build); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Invalidations != 2 || c.Len() != 1 {
		t.Errorf("getOrBuild-path invalidation: stats %+v, len %d", st, c.Len())
	}
}

func TestCatalogCacheErrorsNeverCached(t *testing.T) {
	c := NewCatalogCache(4)
	key := catalogKey{family: "f", backend: "b"}
	boom := fmt.Errorf("backend exploded")
	if _, err := c.getOrBuild(key, 1, func() (*rdd.Catalog, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if c.Len() != 0 {
		t.Fatalf("failed build left %d resident entries", c.Len())
	}
	want := testCatalog(t, "m")
	got, err := c.getOrBuild(key, 1, func() (*rdd.Catalog, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("retry after failure = %v, %v", got, err)
	}
	st := c.Stats()
	if st.Errors != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats %+v; want 1 error, 1 miss, 0 hits", st)
	}
}

func TestCatalogCacheEvictsLRU(t *testing.T) {
	c := NewCatalogCache(2)
	cat := testCatalog(t, "m")
	build := func() (*rdd.Catalog, error) { return cat, nil }
	keys := []catalogKey{{family: "a"}, {family: "b"}, {family: "c"}}
	for _, k := range keys {
		if _, err := c.getOrBuild(k, 1, build); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || c.Len() != 2 {
		t.Fatalf("stats %+v, len %d; want 1 eviction, 2 resident", st, c.Len())
	}
	if _, ok := c.lookup(keys[0], 1); ok {
		t.Error("oldest entry survived eviction")
	}
	for _, k := range keys[1:] {
		if _, ok := c.lookup(k, 1); !ok {
			t.Errorf("recent entry %v was evicted", k)
		}
	}
}

// TestCatalogCacheConcurrentEpochBump races lookups, builds and epoch
// invalidations over a tiny cache; the assertions are the structural
// invariants, the real check is the race detector in `make ci`.
func TestCatalogCacheConcurrentEpochBump(t *testing.T) {
	c := NewCatalogCache(4)
	cat := testCatalog(t, "m")
	keys := []catalogKey{{family: "a"}, {family: "b"}, {family: "c"}, {family: "d"}, {family: "e"}, {family: "f"}}
	var wg sync.WaitGroup
	var lookupHits atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := keys[(g+i)%len(keys)]
				epoch := uint64(1 + (g+i)%3) // contended epoch churn
				if got, ok := c.lookup(key, epoch); ok {
					lookupHits.Add(1)
					if got != cat {
						t.Errorf("lookup returned a foreign catalog %p", got)
						return
					}
				}
				got, err := c.getOrBuild(key, epoch, func() (*rdd.Catalog, error) { return cat, nil })
				if err != nil || got != cat {
					t.Errorf("getOrBuild = %v, %v", got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if c.Len() > 4 {
		t.Errorf("cache over capacity: %d resident", c.Len())
	}
	if st.Errors != 0 {
		t.Errorf("error-free builds recorded %d errors", st.Errors)
	}
	// Every successful operation — the 1600 getOrBuilds plus each
	// standalone lookup that hit — accounts as exactly one hit or miss.
	if want := 8*200 + lookupHits.Load(); st.Hits+st.Misses != want {
		t.Errorf("hits %d + misses %d != %d successful operations", st.Hits, st.Misses, want)
	}
}

// TestStatszCatalogCacheSection: the /statsz envelope exposes both
// cache tiers' counters plus derived hit rates. Three identical warm
// requests land as one catalog build (miss) and two response-byte hits.
func TestStatszCatalogCacheSection(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	url := ts.URL + "/v1/catalog?family=ofa&backend=flops"
	for i := 0; i < 3; i++ {
		if status, body := get(t, url); status != http.StatusOK {
			t.Fatalf("catalog status %d, body %s", status, body)
		}
	}
	status, body := get(t, ts.URL+"/statsz")
	if status != http.StatusOK {
		t.Fatalf("statsz status %d", status)
	}
	var stats struct {
		CatalogCache struct {
			Hits    int64   `json:"hits"`
			Misses  int64   `json:"misses"`
			Entries int     `json:"entries"`
			HitRate float64 `json:"hit_rate"`
		} `json:"catalog_cache"`
		ResponseCache struct {
			Hits    int64   `json:"hits"`
			Misses  int64   `json:"misses"`
			Entries int     `json:"entries"`
			HitRate float64 `json:"hit_rate"`
		} `json:"response_cache"`
		Pools struct {
			EncodeBuffers struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"encode_buffers"`
		} `json:"pools"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	cc := stats.CatalogCache
	if cc.Hits != 0 || cc.Misses != 1 || cc.Entries != 1 {
		t.Errorf("catalog_cache section %+v, want 0 hits / 1 miss / 1 entry", cc)
	}
	rc := stats.ResponseCache
	if rc.Hits != 2 || rc.Misses != 1 || rc.Entries != 1 {
		t.Errorf("response_cache section %+v, want 2 hits / 1 miss / 1 entry", rc)
	}
	if want := 2.0 / 3.0; rc.HitRate != want {
		t.Errorf("response_cache hit_rate %v, want %v", rc.HitRate, want)
	}
	if p := stats.Pools.EncodeBuffers; p.Hits+p.Misses == 0 {
		t.Error("pools.encode_buffers counters never moved")
	}
}

// benchmarkCatalogCacheParallel measures warm lookups under parallel
// load — the contention profile the shard count exists to flatten. The
// shard count follows from the capacity; the working set is the smaller
// of the capacity and 64 keys.
func benchmarkCatalogCacheParallel(b *testing.B, c *CatalogCache) {
	cat, err := rdd.NewCatalog("bench", []rdd.Path{{Label: "p", Cost: 1, Accuracy: 0.5}})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]catalogKey, min(c.Stats().Capacity, 64))
	for i := range keys {
		keys[i] = catalogKey{family: "bench", dataset: "ADE", variant: "Tiny", step: i, backend: "flops-proxy"}
		if _, err := c.getOrBuild(keys[i], 1, func() (*rdd.Catalog, error) { return cat, nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := c.lookup(keys[i%len(keys)], 1); !ok {
				b.Error("warm key missed")
				return
			}
			i++
		}
	})
}

// BenchmarkCatalogCacheParallel compares a one-shard cache with a
// sixteen-shard one under parallel access (compare the sub-benchmarks'
// ns/op). Sharding pays once lock contention costs more than the shard
// hash, which the single shard skips: on a 2-CPU host the single shard
// is faster.
func BenchmarkCatalogCacheParallel(b *testing.B) {
	for _, capacity := range []int{8, 256} {
		c := NewCatalogCache(capacity)
		b.Run(fmt.Sprintf("shards=%d", c.Stats().Shards), func(b *testing.B) {
			benchmarkCatalogCacheParallel(b, c)
		})
	}
}

// TestCatalogSpecsCanonicalizePerFamily: specs that differ only in
// fields their family ignores, or in spelling out the family-default
// step, are one catalog and share one catalog-cache entry; a negative
// step is rejected on every endpoint instead of being built.
func TestCatalogSpecsCanonicalizePerFamily(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	for _, q := range []string{
		"family=ofa&backend=flops",
		"family=ofa&step=9&backend=flops",
		"family=ofa&variant=Base&dataset=City&backend=flops",
		"family=swin&step=0&backend=flops",
		"family=swin&step=256&dataset=City&backend=flops",
	} {
		if status, body := get(t, ts.URL+"/v1/catalog?"+q); status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", q, status, body)
		}
	}
	if cc := srv.CatalogCache().Stats(); cc.Misses != 2 || cc.Hits != 3 {
		t.Errorf("catalog cache %+v, want 2 misses (ofa, swin) and 3 hits", cc)
	}

	if status, body := get(t, ts.URL+"/v1/catalog?family=swin&step=-3&backend=flops"); status != http.StatusBadRequest || !strings.Contains(string(body), "step=-3") {
		t.Errorf("negative step on /v1/catalog: status %d, body %s", status, body)
	}
	status, body := postJSON(t, ts.URL+"/v1/replay", ReplayRequest{
		Catalog: CatalogRequest{Family: "ofa", Step: -1, Backend: "flops"},
		Trace:   &rdd.TraceSpec{Kind: "values", Values: []float64{1, 2, 3}},
	})
	if status != http.StatusBadRequest || !strings.Contains(string(body), "step=-1") {
		t.Errorf("negative step on /v1/replay: status %d, body %s", status, body)
	}
	status, body = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: []CatalogRequest{
		{Family: "ofa", Backend: "flops"},
		{Family: "ofa", Step: -2, Backend: "flops"},
	}})
	var br BatchResponse
	if err := json.Unmarshal(body, &br); status != http.StatusOK || err != nil || len(br.Results) != 2 {
		t.Fatalf("batch: status %d, err %v, body %s", status, err, body)
	}
	if br.Results[0].Catalog == nil || !strings.Contains(br.Results[1].Error, "step=-2") {
		t.Errorf("batch results %+v, want a catalog then a step error", br.Results)
	}
}
