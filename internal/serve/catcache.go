package serve

// Catalog-level result cache. The cost store below amortizes *per-shape*
// backend evaluations, but a fully warm /v1/catalog request still re-runs
// the whole generate → prefilter → cost → frontier pipeline — thousands
// of candidate constructions and store lookups to reproduce a catalog
// that cannot have changed. This cache memoizes the finished artifact:
// the canonicalized request spec maps straight to the built rdd.Catalog,
// so a repeat request is one map lookup — zero backend evaluations, zero
// generated candidates. Entries are stamped with the backend's cost-model
// epoch (engine.BackendEpoch); a backend upgrade flips the epoch and the
// stale catalog is invalidated on its next lookup instead of being served
// silently wrong.
//
// The cache is an lru.Cache keyed by the canonicalized spec: warm
// lookups hash across independently locked shards, and two requests for
// the same spec always share one build.

import (
	"vitdyn/internal/lru"
	"vitdyn/internal/rdd"
)

// DefaultCatalogCacheCapacity bounds a cache created with capacity <= 0.
// The request space is tiny — five families × a handful of datasets,
// variants, steps and backends — so 128 holds every spec this repository
// can serve with room for ad-hoc step values.
const DefaultCatalogCacheCapacity = 128

// catalogKey is the canonicalized identity of one catalog build: the
// request spec with defaults resolved (so "dataset omitted" and
// "dataset=ADE" share an entry) plus the resolved backend name. The
// worker budget is deliberately absent — the pipeline is deterministic,
// so worker count changes latency, never bytes.
type catalogKey struct {
	family  string
	dataset string
	variant string
	step    int
	backend string // resolved CostBackend.Name()
}

// catalogKeyFor canonicalizes a request (see CatalogRequest.withDefaults).
func catalogKeyFor(cr CatalogRequest, backendName string) catalogKey {
	cr = cr.withDefaults()
	return catalogKey{
		family:  cr.Family,
		dataset: cr.Dataset,
		variant: cr.Variant,
		step:    cr.Step,
		backend: backendName,
	}
}

func (k catalogKey) hash() uint64 {
	h := lru.HashString(lru.HashSeed, k.family)
	h = lru.HashString(h, k.dataset)
	h = lru.HashString(h, k.variant)
	h = lru.HashString(h, k.backend)
	return lru.HashUint64(h, uint64(k.step))
}

// catalogVal is one resident catalog, stamped with the backend epoch it
// was built under; an entry never migrates epochs, it is replaced.
type catalogVal struct {
	epoch uint64
	cat   *rdd.Catalog
}

// CatalogCache is a bounded LRU of built catalogs keyed by canonicalized
// request spec, epoch-invalidated and sharded for concurrent lookups.
// Safe for concurrent use.
type CatalogCache struct {
	c *lru.Cache[catalogKey, catalogVal]
}

// NewCatalogCache returns a cache holding at most capacity catalogs;
// capacity <= 0 selects DefaultCatalogCacheCapacity.
func NewCatalogCache(capacity int) *CatalogCache {
	if capacity <= 0 {
		capacity = DefaultCatalogCacheCapacity
	}
	return &CatalogCache{c: lru.New[catalogKey, catalogVal](capacity, catalogKey.hash)}
}

// lookup returns the cached catalog for (key, epoch) when it is resident,
// fully built and healthy — the fast path handlers take before paying
// for a sweep slot. A resident entry stamped with a different epoch is
// invalidated here (the backend has upgraded; its catalog is stale), and
// entries still building or failed report a miss without blocking.
// Only successful lookups count as hits.
func (c *CatalogCache) lookup(key catalogKey, epoch uint64) (*rdd.Catalog, bool) {
	v, ok := c.c.Get(key, func(v catalogVal) bool { return v.epoch == epoch })
	return v.cat, ok
}

// getOrBuild returns the catalog for (key, epoch), running build at most
// once per resident key — concurrent cold requests for one spec share a
// single sweep. Callers hold a sweep slot: build runs on the calling
// goroutine and must never acquire one itself (a slot-holder waiting on
// a slot-acquiring build is how slot pools deadlock). Build errors are
// returned but never cached, so the next request retries. An entry
// resident under a different epoch is replaced.
func (c *CatalogCache) getOrBuild(key catalogKey, epoch uint64, build func() (*rdd.Catalog, error)) (*rdd.Catalog, error) {
	v, err := c.c.GetOrCompute(key, func(v catalogVal) bool { return v.epoch == epoch }, func() (catalogVal, error) {
		cat, err := build()
		return catalogVal{epoch: epoch, cat: cat}, err
	})
	return v.cat, err
}

// Len returns the number of resident entries.
func (c *CatalogCache) Len() int { return c.c.Len() }

// CatalogCacheStats is a point-in-time snapshot of the cache counters,
// the /statsz catalog_cache section. Hits count lookups served from a
// built catalog (including joins of an in-flight build); misses count
// builds actually run; errors count failed builds (never cached);
// invalidations count entries dropped because their backend moved to a
// new cost-model epoch.
type CatalogCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Errors        int64 `json:"errors"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Capacity      int   `json:"capacity"`
	Shards        int   `json:"shards"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (st CatalogCacheStats) HitRate() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters (each individually
// exact, the set approximate under concurrent load).
func (c *CatalogCache) Stats() CatalogCacheStats {
	st := c.c.Stats()
	return CatalogCacheStats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Errors:        st.Errors,
		Evictions:     st.Evictions,
		Invalidations: st.Invalidations,
		Entries:       st.Entries,
		Capacity:      st.Capacity,
		Shards:        st.Shards,
	}
}
