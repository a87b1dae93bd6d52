package serve

// Pre-encoded response cache. The catalog cache (catcache.go) makes a
// warm request cost zero backend work — but the handler still re-encodes
// the full JSON body on every hit: an encoder, a buffer, a reflection
// walk over hundreds of paths, per request, to produce bytes that are a
// pure function of the spec. This cache keeps the finished bytes: a warm
// hit is a header write plus one w.Write of a cached []byte with a
// precomputed Content-Length. Entries are stamped with every backend
// epoch that contributed to the body (engine.BackendEpoch); lookups
// revalidate the stamps, so an epoch bump or SetEpochSalt invalidates
// cached bytes exactly as it invalidates cached catalogs — stale bytes
// are never served. Only fully-successful, untraced 200 responses are
// cached: ?debug=trace responses embed per-request spans, and error
// outcomes may be transient (timeouts, slot exhaustion), so both bypass.
//
// Keys are exact strings: the literal RawQuery for GET /v1/catalog (so
// the warm probe allocates nothing), a canonical JSON rendering of the
// normalized request for replay and batch. Two spellings of one spec
// may occupy two entries; both are valid, both are epoch-checked, and
// the LRU bounds total residency.

import (
	"strconv"
	"sync/atomic"

	"vitdyn/internal/engine"
	"vitdyn/internal/lru"
)

// respKind separates the three endpoint namespaces so a replay key can
// never collide with a catalog query string.
type respKind uint8

const (
	respCatalog respKind = iota
	respReplay
	respBatch
)

// Response-cache sizing. Capacity is entries, not bytes, matching the
// catalog cache; maxRespBodyBytes keeps one giant replay from pinning
// megabytes per entry, and maxRespKeyBytes bounds what a hostile query
// string or a values-laden replay body can burn on keys.
const (
	DefaultRespCacheCapacity = 256
	maxRespBodyBytes         = 1 << 20 // 1 MiB
	maxRespKeyBytes          = 64 << 10
)

// epochStamp records one backend whose cost model shaped a cached body,
// with the epoch it had at encode time. lookup revalidates by asking
// the backend for its current epoch — BackendEpoch is memoized and
// allocation-free on repeat, and unlike the epoch registry it always
// reflects the current salt.
type epochStamp struct {
	backend engine.CostBackend
	epoch   uint64
}

type respKey struct {
	kind respKind
	key  string
}

func (k respKey) hash() uint64 {
	return lru.HashString(lru.HashUint64(lru.HashSeed, uint64(k.kind)), k.key)
}

// respEntry is one cached response. body is immutable after insert —
// writers hand the cache a private copy — so concurrent readers may
// write it to the wire without holding any lock. clen is the
// precomputed Content-Length header value, shared by every hit.
type respEntry struct {
	body   []byte
	clen   []string // Content-Length header value, precomputed
	stamps []epochStamp
}

// fresh reports whether every backend stamp still matches its backend's
// current epoch.
func (e *respEntry) fresh() bool {
	for _, st := range e.stamps {
		if engine.BackendEpoch(st.backend) != st.epoch {
			return false
		}
	}
	return true
}

// RespCache is a sharded LRU of pre-encoded response bodies keyed by
// (kind, exact key string), epoch-validated on every hit. Safe for
// concurrent use.
type RespCache struct {
	c      *lru.Cache[respKey, *respEntry]
	misses atomic.Int64 // cacheable lookups that found nothing servable
}

// NewRespCache returns a cache holding at most capacity responses;
// capacity <= 0 selects DefaultRespCacheCapacity.
func NewRespCache(capacity int) *RespCache {
	if capacity <= 0 {
		capacity = DefaultRespCacheCapacity
	}
	return &RespCache{c: lru.New[respKey, *respEntry](capacity, respKey.hash)}
}

// lookup returns the cached entry for (kind, key) when it is resident
// and fresh. A stale stamp — the backend upgraded, or SetEpochSalt
// flipped every epoch — invalidates the entry here, exactly like the
// catalog cache, and counts as a miss too. The returned entry's body is
// immutable; callers write it without further synchronization.
func (c *RespCache) lookup(kind respKind, key string) (*respEntry, bool) {
	ent, ok := c.c.Get(respKey{kind: kind, key: key}, (*respEntry).fresh)
	if !ok {
		c.misses.Add(1)
	}
	return ent, ok
}

// put caches a response body under (kind, key), copying body so the
// caller may recycle its encode buffer. Oversized bodies and keys are
// skipped — the cold path already served them; they are just not worth
// pinning. A racing put for the same key wins by replacement.
func (c *RespCache) put(kind respKind, key string, body []byte, stamps []epochStamp) {
	if len(body) > maxRespBodyBytes || len(key) > maxRespKeyBytes || len(body) == 0 || key == "" {
		return
	}
	c.c.Put(respKey{kind: kind, key: key}, &respEntry{
		body:   append([]byte(nil), body...),
		clen:   []string{strconv.Itoa(len(body))},
		stamps: stamps,
	})
}

// RespCacheStats is the /statsz response_cache section: hits are
// requests served straight from cached bytes, misses are cacheable
// requests that had to encode, invalidations are entries dropped on an
// epoch change.
type RespCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
	Entries       int   `json:"entries"`
	Capacity      int   `json:"capacity"`
	Shards        int   `json:"shards"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (st RespCacheStats) HitRate() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *RespCache) Stats() RespCacheStats {
	st := c.c.Stats()
	return RespCacheStats{
		Hits:          st.Hits,
		Misses:        c.misses.Load(),
		Invalidations: st.Invalidations,
		Evictions:     st.Evictions,
		Entries:       st.Entries,
		Capacity:      st.Capacity,
		Shards:        st.Shards,
	}
}
