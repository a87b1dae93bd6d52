// Package serve is the request-level serving layer on top of the sweep
// engine: a process-wide, sharded, LRU-evicting cost store shared by
// every engine the server creates, and an HTTP daemon exposing catalog
// construction, profiling and introspection endpoints. It is the piece
// that amortizes graph costing across many concurrent catalog requests —
// the same sharing-of-costed-shapes idea the paper's RDD catalogs
// exploit within one sweep, lifted to the whole process.
package serve

import (
	"fmt"
	"io"

	"vitdyn/internal/engine"
	"vitdyn/internal/lru"
)

// DefaultStoreCapacity bounds a store created with capacity <= 0: the
// engine's memo bound, enough for every sweep this repository ships
// with room for several backends.
const DefaultStoreCapacity = engine.DefaultMemoCapacity

// storeKey identifies one cached cost vector: which substrate priced the
// graph, the substrate's cost-model epoch (see engine.BackendEpoch), and
// the graph's cost-relevant shape signature. Epoch in the key means a
// backend upgrade misses cleanly instead of serving stale costs; the old
// epoch's entries age out of the LRU on their own.
type storeKey struct {
	backend string
	epoch   uint64
	sig     uint64
}

func (k storeKey) hash() uint64 {
	return lru.HashUint64(lru.HashUint64(lru.HashString(lru.HashSeed, k.backend), k.epoch), k.sig)
}

// Store is a process-wide, sharded, LRU-evicting (backend name, epoch,
// graph signature) → cost-vector store with hit/miss/error/eviction
// accounting. It implements engine.CostCache, so any engine built with
// engine.NewWithCache shares it — across sweeps, across requests, across
// backends. A Store is safe for concurrent use.
type Store struct {
	c *lru.Cache[storeKey, []float64]
}

var _ engine.CostCache = (*Store)(nil)

// NewStore returns a store holding at most capacity entries;
// capacity <= 0 selects DefaultStoreCapacity.
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultStoreCapacity
	}
	return &Store{c: lru.New[storeKey, []float64](capacity, storeKey.hash)}
}

// GetOrComputeVector returns the cached cost vector for (backend,
// epoch, sig), computing and inserting it on a miss. Concurrent callers
// of a cold key compute once and share the result. Errors are returned
// but never left cached, so the next request retries the computation
// and a transiently misconfigured backend cannot poison the store. The
// returned slice is shared with the cache and must not be mutated.
func (s *Store) GetOrComputeVector(backend string, epoch, sig uint64, compute func() ([]float64, error)) ([]float64, error) {
	return s.c.GetOrCompute(storeKey{backend: backend, epoch: epoch, sig: sig}, nil, compute)
}

// GetOrCompute is the scalar convenience form of GetOrComputeVector: the
// value is stored as (and shared with) a 1-vector.
func (s *Store) GetOrCompute(backend string, epoch, sig uint64, compute func() (float64, error)) (float64, error) {
	vals, err := s.GetOrComputeVector(backend, epoch, sig, func() ([]float64, error) {
		v, err := compute()
		if err != nil {
			return nil, err
		}
		return []float64{v}, nil
	})
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// Range calls fn for every resident entry whose computation has
// completed successfully, stopping early if fn returns false. Iteration
// order is unspecified; recency order and counters are untouched; the
// vals slice is shared with the store and must not be mutated. Entries
// whose compute is still in flight are skipped, so Range never blocks
// on a slow backend — it sees the store as of "now", which is all its
// callers (snapshot export) need.
func (s *Store) Range(fn func(backend string, epoch, sig uint64, vals []float64) bool) {
	s.c.Range(func(k storeKey, vals []float64) bool {
		return len(vals) == 0 || fn(k.backend, k.epoch, k.sig, vals)
	})
}

// Contains reports whether (backend, epoch, sig) is resident, without
// touching recency order or counters (for tests and diagnostics).
func (s *Store) Contains(backend string, epoch, sig uint64) bool {
	return s.c.Contains(storeKey{backend: backend, epoch: epoch, sig: sig})
}

// Len returns the number of resident entries.
func (s *Store) Len() int { return s.c.Len() }

// StoreStats is a point-in-time accounting snapshot. Hits count lookups
// served from a resident entry (a finished or in-flight computation
// another lookup started); misses count lookups whose own computation
// ran;
// errors count lookups — hit- or miss-path — whose computation failed
// (failures cache nothing, so they are neither hits nor misses);
// evictions count entries dropped under capacity pressure.
type StoreStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Errors    int64 `json:"errors"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
// Error outcomes are excluded from both sides: a joined compute that
// failed is not a "hit" the store can take credit for.
func (st StoreStats) HitRate() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Stats returns a snapshot of the store's counters. The counters are
// read independently, so a snapshot taken under concurrent load is
// approximate (each counter is individually exact).
func (s *Store) Stats() StoreStats {
	st := s.c.Stats()
	return StoreStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Errors:    st.Errors,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		Capacity:  st.Capacity,
	}
}

// InstallProcessStore backs the cmd binaries' -cache flag: it installs
// a fresh store of the given capacity as the process-wide default
// engine cache and returns a teardown function that uninstalls it and
// prints the final hit/miss/eviction accounting to w, prefixed with the
// binary name.
func InstallProcessStore(capacity int, prefix string, w io.Writer) func() {
	store := NewStore(capacity)
	engine.SetDefaultCache(store)
	return func() {
		engine.SetDefaultCache(nil)
		st := store.Stats()
		fmt.Fprintf(w, "%s: cost store: %d hits / %d misses (%.0f%% hit rate), %d evictions, %d entries\n",
			prefix, st.Hits, st.Misses, 100*st.HitRate(), st.Evictions, st.Entries)
	}
}
