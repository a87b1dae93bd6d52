// Package lru is the one memo cache behind every memoization tier in
// vitdyn — per-shape costs, built catalogs, encoded responses, the
// engine's private memo and costdb's standalone fast tier. A Cache is a
// generic, bounded, sharded map with least-recently-used eviction,
// single-flight computation per key, optional validity checks for
// epoch-stamped values and one uniform set of counters. The tiers above
// it keep only what differs between them: key type and hash, how values
// are stamped, and size caps.
//
// Keys hash across a power-of-two set of shards, each an independent
// (mutex, map, intrusive LRU list) triple; the shard count is derived
// from the capacity alone, so tiny caches get one shard and strict
// global LRU order. Total residency never exceeds the capacity.
package lru

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Shard sizing: at most maxShards shards and at least minPerShard
// entries per shard, so sharding never meaningfully distorts LRU
// behaviour and caches below 2×minPerShard entries are one shard.
const (
	maxShards   = 16
	minPerShard = 8
)

// Key hashing for shard selection: callers chain HashString and
// HashUint64 from HashSeed over their key fields. Each step is an
// FNV-1a style word fold; strings fold eight bytes per step, so hashing
// the warm paths' query-string keys stays a few multiplies. The hash is
// deterministic, so a seeded run places keys in the same shards — and
// evicts the same entries — every time.
const (
	HashSeed = 14695981039346656037
	prime64  = 1099511628211
)

// HashString folds s into the running hash h.
func HashString(h uint64, s string) uint64 {
	for ; len(s) >= 8; s = s[8:] {
		h = HashUint64(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	var tail uint64
	for i := 0; i < len(s); i++ {
		tail = tail<<8 | uint64(s[i])
	}
	return HashUint64(h, tail)
}

// HashUint64 folds v into the running hash h.
func HashUint64(h, v uint64) uint64 { return (h ^ v) * prime64 }

// entry is one resident key. The once makes concurrent callers of a
// cold key compute once and share the result; done is set after the
// once completes (Put entries are born done), so readers that must not
// block — Get, Range — can observe finished entries without joining
// the once, where an empty once.Do could win the race and suppress the
// real compute. prev/next link the shard's LRU list.
type entry[K comparable, V any] struct {
	key        K
	prev, next *entry[K, V]
	once       sync.Once
	done       atomic.Bool
	val        V
	err        error
}

// shard is one independently locked slice of the cache. root is the
// list sentinel: root.next is the most recently used entry, root.prev
// the least.
type shard[K comparable, V any] struct {
	mu      sync.Mutex
	m       map[K]*entry[K, V]
	root    entry[K, V]
	cap     int
	removed int // removals since m was last rebuilt (see remove)
}

// Cache is a bounded, sharded LRU memo from K to V. Safe for
// concurrent use; construct with New.
type Cache[K comparable, V any] struct {
	shards []shard[K, V]
	shift  uint // 64 - log2(len(shards)): shard index from the hash's top bits
	hash   func(K) uint64

	hits, misses, errors, evictions, invalidations atomic.Int64
}

// New returns a cache holding at most capacity entries (at least one),
// spread over shards picked by hash. The shard count is the largest
// power of two no greater than min(16, capacity/8), floored at 1;
// per-shard capacity is capacity/shards with the remainder spread over
// the first shards.
func New[K comparable, V any](capacity int, hash func(K) uint64) *Cache[K, V] {
	capacity = max(capacity, 1)
	n := 1
	for n*2 <= maxShards && n*2 <= capacity/minPerShard {
		n *= 2
	}
	c := &Cache[K, V]{
		shards: make([]shard[K, V], n),
		shift:  64 - uint(bits.TrailingZeros(uint(n))),
		hash:   hash,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[K]*entry[K, V])
		s.root.prev, s.root.next = &s.root, &s.root
		s.cap = capacity / n
		if i < capacity%n {
			s.cap++
		}
	}
	return c
}

// shardFor picks k's shard from the top bits of its hash after a
// Fibonacci multiply, so hashes with weak low bits still spread.
func (c *Cache[K, V]) shardFor(k K) *shard[K, V] {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	return &c.shards[(c.hash(k)*0x9e3779b97f4a7c15)>>c.shift]
}

// pushFront links e as the most recently used entry. Caller holds s.mu.
func (s *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &s.root, s.root.next
	e.next.prev = e
	s.root.next = e
}

// remove unlinks e and drops it from the map. Caller holds s.mu.
//
// A Go map does not reclaim the slots its deletes free, so under steady
// eviction churn a full shard's map keeps growing (about 4x its
// churn-free size after a million evictions). Once a shard has removed
// four times its capacity, remove rebuilds the map from the LRU list,
// which holds every resident entry: amortized O(1) per removal.
func (s *shard[K, V]) remove(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	delete(s.m, e.key)
	if s.removed++; s.removed >= 4*s.cap {
		m := make(map[K]*entry[K, V], len(s.m))
		for x := s.root.next; x != &s.root; x = x.next {
			m[x.key] = x
		}
		s.m, s.removed = m, 0
	}
}

// touch moves e to the front of the LRU list. Caller holds s.mu.
func (s *shard[K, V]) touch(e *entry[K, V]) {
	if s.root.next != e {
		e.prev.next, e.next.prev = e.next, e.prev
		s.pushFront(e)
	}
}

// insert publishes e as the most recently used entry and evicts from
// the back while the shard is over capacity. Caller holds s.mu.
func (c *Cache[K, V]) insert(s *shard[K, V], e *entry[K, V]) {
	s.m[e.key] = e
	s.pushFront(e)
	for len(s.m) > s.cap {
		s.remove(s.root.prev)
		c.evictions.Add(1)
	}
}

// drop removes e if it is still its key's resident entry, reporting
// whether it did. The identity check matters: after e was evicted, a
// caller may have re-inserted the key, and a stale failure must not
// remove that fresh entry.
func (c *Cache[K, V]) drop(s *shard[K, V], e *entry[K, V]) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[e.key] != e {
		return false
	}
	s.remove(e)
	return true
}

// Get returns k's value when it is resident, computed without error
// and — if valid is non-nil — valid(v) holds. A resident value failing
// valid is dropped and counted as an invalidation. Get never blocks on
// an in-flight computation; it counts a hit on success and nothing
// otherwise.
func (c *Cache[K, V]) Get(k K, valid func(V) bool) (V, bool) {
	var zero V
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.m[k]
	if !ok || !e.done.Load() || e.err != nil {
		s.mu.Unlock()
		return zero, false
	}
	s.touch(e)
	s.mu.Unlock()
	if valid != nil && !valid(e.val) {
		c.invalidate(s, e)
		return zero, false
	}
	c.hits.Add(1)
	return e.val, true
}

// invalidate drops e, which failed a validity check, counting the
// invalidation once however many callers noticed it.
func (c *Cache[K, V]) invalidate(s *shard[K, V], e *entry[K, V]) {
	if c.drop(s, e) {
		c.invalidations.Add(1)
	}
}

// GetOrCompute returns k's value, running compute at most once per
// resident entry: concurrent callers of a cold key share one
// computation. The caller whose compute ran counts a miss; callers that
// joined a finished or in-flight computation count a hit. A failure is
// returned to every caller that shared it, counted as an error for
// each, and never cached — the entry is dropped by identity (see drop),
// so the next call recomputes. If valid is non-nil, a joined value
// failing it is dropped as an invalidation and the lookup starts over;
// the caller's own computation is returned as is. The returned value is
// shared with the cache.
func (c *Cache[K, V]) GetOrCompute(k K, valid func(V) bool, compute func() (V, error)) (V, error) {
	s := c.shardFor(k)
	for {
		s.mu.Lock()
		e, ok := s.m[k]
		if ok {
			s.touch(e)
		} else {
			e = &entry[K, V]{key: k}
			c.insert(s, e)
		}
		s.mu.Unlock()

		ran := false
		if !e.done.Load() {
			e.once.Do(func() {
				ran = true
				e.val, e.err = compute()
			})
			e.done.Store(true)
		}
		if e.err != nil {
			c.drop(s, e)
			c.errors.Add(1)
			var zero V
			return zero, e.err
		}
		if !ran && valid != nil && !valid(e.val) {
			c.invalidate(s, e)
			continue
		}
		if ran {
			c.misses.Add(1)
		} else {
			c.hits.Add(1)
		}
		return e.val, nil
	}
}

// Put stores v under k as the most recently used entry, replacing any
// resident entry for k. It counts neither a hit nor a miss.
func (c *Cache[K, V]) Put(k K, v V) {
	e := &entry[K, V]{key: k, val: v}
	e.done.Store(true)
	s := c.shardFor(k)
	s.mu.Lock()
	if old, ok := s.m[k]; ok {
		s.remove(old)
	}
	c.insert(s, e)
	s.mu.Unlock()
}

// Range calls fn for every resident entry whose computation finished
// without error, stopping early if fn returns false. Order is
// unspecified; recency and counters are untouched. Entries still in
// flight are skipped, so Range never blocks on a slow compute.
func (c *Cache[K, V]) Range(fn func(K, V) bool) {
	var ents []*entry[K, V]
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		ents = ents[:0]
		for e := s.root.next; e != &s.root; e = e.next {
			ents = append(ents, e)
		}
		s.mu.Unlock()
		for _, e := range ents {
			if e.done.Load() && e.err == nil && !fn(e.key, e.val) {
				return
			}
		}
	}
}

// Contains reports whether k is resident (finished or in flight),
// without touching recency or counters.
func (c *Cache[K, V]) Contains(k K) bool {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[k]
	return ok
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time accounting snapshot. Hits count Get
// successes and GetOrCompute calls that joined another caller's
// computation; misses count GetOrCompute calls whose own compute ran;
// errors count GetOrCompute calls that returned a failure (neither hits
// nor misses); evictions count entries dropped under capacity pressure;
// invalidations count entries dropped because they failed a validity
// check.
type Stats struct {
	Hits, Misses, Errors, Evictions, Invalidations int64
	Entries, Capacity, Shards                      int
}

// Stats returns a snapshot of the counters. They are read
// independently, so a snapshot under concurrent load is approximate
// (each counter is individually exact).
func (c *Cache[K, V]) Stats() Stats {
	capacity := 0
	for i := range c.shards {
		capacity += c.shards[i].cap
	}
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Errors:        c.errors.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.Len(),
		Capacity:      capacity,
		Shards:        len(c.shards),
	}
}
