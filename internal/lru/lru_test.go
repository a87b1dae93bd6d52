package lru

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func hashInt(k int) uint64 { return uint64(k) }

func newInt(capacity int) *Cache[int, int] { return New[int, int](capacity, hashInt) }

// constant returns a compute that counts its runs and yields v.
func constant(calls *atomic.Int64, v int) func() (int, error) {
	return func() (int, error) {
		calls.Add(1)
		return v, nil
	}
}

func TestShardCountFollowsCapacity(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{
		{0, 1}, {1, 1}, {15, 1}, {16, 2}, {31, 2}, {32, 4}, {64, 8},
		{128, 16}, {256, 16}, {16384, 16},
	} {
		st := newInt(tc.capacity).Stats()
		if st.Shards != tc.shards {
			t.Errorf("capacity %d: %d shards, want %d", tc.capacity, st.Shards, tc.shards)
		}
		if want := max(tc.capacity, 1); st.Capacity != want {
			t.Errorf("capacity %d: effective capacity %d, want %d", tc.capacity, st.Capacity, want)
		}
	}
}

func TestEvictionOrderLRU(t *testing.T) {
	c := newInt(3) // one shard: exact global LRU order
	var calls atomic.Int64
	for k := 1; k <= 3; k++ {
		if _, err := c.GetOrCompute(k, nil, constant(&calls, k)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 (via GetOrCompute) and 3 (via Get): 2 is now least recent.
	if _, err := c.GetOrCompute(1, nil, constant(&calls, 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(3, nil); !ok {
		t.Fatal("resident key 3 missed")
	}
	c.Put(4, 4)
	if c.Contains(2) {
		t.Error("least recently used key 2 survived eviction")
	}
	for _, k := range []int{1, 3, 4} {
		if !c.Contains(k) {
			t.Errorf("key %d evicted, should be resident", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Hits != 2 || st.Misses != 3 {
		t.Errorf("stats %+v; want 1 eviction, 3 entries, 2 hits, 3 misses", st)
	}
	for k := 10; k < 30; k++ {
		c.Put(k, k)
		if c.Len() > 3 {
			t.Fatalf("cache grew to %d entries with capacity 3", c.Len())
		}
	}
	if st := c.Stats(); st.Evictions != 21 {
		t.Errorf("evictions %d, want 21", st.Evictions)
	}
}

func TestSingleFlight(t *testing.T) {
	c := newInt(256)
	var calls atomic.Int64
	release := make(chan struct{})
	const racers, keys = 16, 8
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				v, err := c.GetOrCompute(k, nil, func() (int, error) {
					calls.Add(1)
					<-release
					return k * 10, nil
				})
				if err != nil || v != k*10 {
					t.Errorf("key %d = %d, %v", k, v, err)
				}
			}
		}(g)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != keys {
		t.Errorf("compute ran %d times for %d keys", n, keys)
	}
	st := c.Stats()
	if st.Misses != keys || st.Hits != racers*keys-keys {
		t.Errorf("stats %+v; want %d misses and %d hits", st, keys, racers*keys-keys)
	}
}

func TestErrorsNeverCached(t *testing.T) {
	c := newInt(8)
	boom := errors.New("backend offline")
	if _, err := c.GetOrCompute(7, nil, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if c.Contains(7) {
		t.Error("failed entry left resident")
	}
	var calls atomic.Int64
	if v, err := c.GetOrCompute(7, nil, constant(&calls, 70)); err != nil || v != 70 || calls.Load() != 1 {
		t.Errorf("retry = %d, %v after %d computes; want a fresh compute", v, err, calls.Load())
	}
	if st := c.Stats(); st.Errors != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats %+v; want 1 error, 1 miss, 0 hits", st)
	}
}

// TestHitPathFailureCountsAsError: a caller that finds a resident entry,
// wins its once and fails the compute must count an error (not a hit,
// not a miss), drop the entry and let the next call recompute. The
// resident-but-uncomputed entry is staged white-box: it is exactly the
// state a concurrent inserter leaves between publishing its entry and
// running its once.
func TestHitPathFailureCountsAsError(t *testing.T) {
	c := newInt(8)
	s := c.shardFor(1)
	s.mu.Lock()
	c.insert(s, &entry[int, int]{key: 1})
	s.mu.Unlock()

	boom := errors.New("backend exploded")
	if _, err := c.GetOrCompute(1, nil, func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Errors != 1 {
		t.Errorf("stats %+v; want 0 hits, 0 misses, 1 error", st)
	}
	if c.Contains(1) {
		t.Error("failed entry left resident")
	}
	var calls atomic.Int64
	if _, err := c.GetOrCompute(1, nil, constant(&calls, 7)); err != nil || calls.Load() != 1 {
		t.Errorf("retry err %v, %d computes; want a fresh compute", err, calls.Load())
	}
}

// TestStaleFailureKeepsFreshEntry: an entry is evicted while its compute
// is in flight, the key is re-inserted fresh and succeeds, and only then
// does the original compute fail. The stale failure must not remove the
// fresh entry — removal checks identity, not just the key.
func TestStaleFailureKeepsFreshEntry(t *testing.T) {
	c := newInt(1) // any second key evicts the first
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	boom := errors.New("slow compute failed")
	go func() {
		defer close(done)
		if _, err := c.GetOrCompute(1, nil, func() (int, error) {
			close(started)
			<-release
			return 0, boom
		}); err != boom {
			t.Errorf("evicted inserter err = %v, want %v", err, boom)
		}
	}()
	<-started
	var calls atomic.Int64
	if _, err := c.GetOrCompute(2, nil, constant(&calls, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrCompute(1, nil, constant(&calls, 1)); err != nil {
		t.Fatal(err)
	}
	close(release)
	<-done
	if !c.Contains(1) {
		t.Fatal("stale failure removed the fresh entry for its key")
	}
	if _, err := c.GetOrCompute(1, nil, constant(&calls, 1)); err != nil || calls.Load() != 2 {
		t.Errorf("fresh entry recomputed (%d computes, err %v)", calls.Load(), err)
	}
	if st := c.Stats(); st.Errors != 1 {
		t.Errorf("errors = %d, want exactly the one stale failure", st.Errors)
	}
}

// TestValidityInvalidates: a value failing the validity check is
// dropped and counted as an invalidation on both Get and GetOrCompute,
// never returned.
func TestValidityInvalidates(t *testing.T) {
	c := newInt(4)
	c.Put(1, 1)
	is := func(want int) func(int) bool { return func(v int) bool { return v == want } }
	if v, ok := c.Get(1, is(1)); !ok || v != 1 {
		t.Fatalf("valid Get = %d, %v", v, ok)
	}
	if _, ok := c.Get(1, is(2)); ok || c.Contains(1) {
		t.Fatal("invalid value served or left resident")
	}
	c.Put(1, 1)
	var calls atomic.Int64
	if v, err := c.GetOrCompute(1, is(2), constant(&calls, 2)); err != nil || v != 2 || calls.Load() != 1 {
		t.Errorf("GetOrCompute over an invalid value = %d, %v (%d computes)", v, err, calls.Load())
	}
	if st := c.Stats(); st.Invalidations != 2 || st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats %+v; want 2 invalidations, 1 hit, 1 miss, 1 entry", st)
	}
}

// TestInFlightIsInvisibleToGetAndRange: Get and Range never block on,
// or report, a computation still in flight; Range stops when fn says so.
func TestInFlightIsInvisibleToGetAndRange(t *testing.T) {
	c := newInt(8)
	c.Put(1, 10)
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrCompute(2, nil, func() (int, error) {
			close(started)
			<-release
			return 20, nil
		})
	}()
	<-started
	if _, ok := c.Get(2, nil); ok {
		t.Error("Get returned an in-flight value")
	}
	seen := map[int]int{}
	c.Range(func(k, v int) bool { seen[k] = v; return true })
	if len(seen) != 1 || seen[1] != 10 {
		t.Errorf("Range during compute saw %v, want only 1→10", seen)
	}
	close(release)
	<-done
	clear(seen)
	c.Range(func(k, v int) bool { seen[k] = v; return true })
	if len(seen) != 2 || seen[2] != 20 {
		t.Errorf("Range after compute saw %v", seen)
	}
	n := 0
	c.Range(func(int, int) bool { n++; return false })
	if n != 1 {
		t.Errorf("Range kept going after fn returned false (%d calls)", n)
	}
}

// TestRangeDuringEviction races Range against insert-driven eviction,
// failures and lookups on a cache far smaller than the working set; the
// assertions are structural, the scheduling check is the race detector.
func TestRangeDuringEviction(t *testing.T) {
	c := newInt(16) // two shards
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*500 + i) % 64
				_, err := c.GetOrCompute(k, nil, func() (int, error) {
					if k%7 == 3 {
						return 0, fmt.Errorf("synthetic failure")
					}
					return k, nil
				})
				if err != nil && k%7 != 3 {
					t.Errorf("unexpected error for key %d: %v", k, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Range(func(k, v int) bool {
					if k != v || k%7 == 3 {
						t.Errorf("Range yielded %d→%d", k, v)
						return false
					}
					return true
				})
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Errorf("cache over capacity: %d > %d", st.Entries, st.Capacity)
	}
	if st.Errors == 0 || st.Evictions == 0 {
		t.Errorf("stats %+v: failures or evictions never happened; stress is vacuous", st)
	}
}

// TestGetHitZeroAllocs pins the warm lookup, validity check included,
// at zero allocations: every serving tier's fast path is built on it.
func TestGetHitZeroAllocs(t *testing.T) {
	c := newInt(256)
	c.Put(1, 10)
	want := 10
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(1, func(v int) bool { return v == want }); !ok {
			t.Fatal("warm key missed")
		}
	}); n != 0 {
		t.Errorf("warm Get allocated %v times per run, want 0", n)
	}
}

// TestChurnKeepsResidentSetExact drives a small cache through many times
// its capacity in evictions — past every periodic rebuild of the shard
// maps — and checks the resident set stays exactly the most recent keys,
// in LRU order.
func TestChurnKeepsResidentSetExact(t *testing.T) {
	c := newInt(8) // one shard
	var calls atomic.Int64
	for k := 0; k < 1000; k++ {
		if _, err := c.GetOrCompute(k, nil, constant(&calls, k)); err != nil {
			t.Fatal(err)
		}
		if k%97 == 0 && k >= 8 {
			c.GetOrCompute(k-7, nil, constant(&calls, k-7)) // touch the oldest: it survives the next eviction
		}
	}
	if c.Len() != 8 {
		t.Fatalf("Len = %d, want 8", c.Len())
	}
	for k := 992; k < 1000; k++ {
		if v, ok := c.Get(k, nil); !ok || v != k {
			t.Errorf("Get(%d) = %d, %v", k, v, ok)
		}
	}
	if _, ok := c.Get(991, nil); ok {
		t.Error("evicted key 991 still resident")
	}
	if st := c.Stats(); st.Evictions != 992 || calls.Load() != 1000 {
		t.Errorf("evictions %d, computes %d; want 992, 1000", st.Evictions, calls.Load())
	}
}
