package serve

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// constVec returns a compute function yielding a fixed vector and
// counting its invocations.
func constVec(calls *atomic.Int64, vals ...float64) func() ([]float64, error) {
	return func() ([]float64, error) {
		calls.Add(1)
		return vals, nil
	}
}

func TestStoreHitMissAccounting(t *testing.T) {
	s := NewStore(64)
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		vals, err := s.GetOrComputeVector("b", 1, 1, constVec(&calls, 1.5))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vals, []float64{1.5}) {
			t.Fatalf("vals = %v", vals)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 1 entry / 0 evictions", st)
	}
	if got := st.HitRate(); got != 2.0/3.0 {
		t.Errorf("hit rate = %v, want 2/3", got)
	}
	// Same signature under a different backend name is a distinct entry.
	if _, err := s.GetOrComputeVector("other", 1, 1, constVec(&calls, 9)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 || s.Len() != 2 {
		t.Errorf("backend-name isolation broken: %d computes, %d entries", calls.Load(), s.Len())
	}
}

func TestStoreEvictionOrderLRU(t *testing.T) {
	// Capacity 3 is one shard, so global LRU order is exact.
	s := NewStore(3)
	var calls atomic.Int64
	for sig := uint64(1); sig <= 3; sig++ {
		if _, err := s.GetOrComputeVector("b", 1, sig, constVec(&calls, float64(sig))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 so 2 becomes least-recently-used, then insert 4.
	if _, err := s.GetOrComputeVector("b", 1, 1, constVec(&calls, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetOrComputeVector("b", 1, 4, constVec(&calls, 4)); err != nil {
		t.Fatal(err)
	}
	if s.Contains("b", 1, 2) {
		t.Error("entry 2 survived eviction despite being LRU")
	}
	for _, sig := range []uint64{1, 3, 4} {
		if !s.Contains("b", 1, sig) {
			t.Errorf("entry %d missing, should be resident", sig)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Errorf("stats = %+v, want 1 eviction / 3 entries", st)
	}
	// Under continued pressure the store never exceeds capacity.
	for sig := uint64(10); sig < 30; sig++ {
		if _, err := s.GetOrComputeVector("b", 1, sig, constVec(&calls, 0)); err != nil {
			t.Fatal(err)
		}
		if s.Len() > 3 {
			t.Fatalf("store grew to %d entries with capacity 3", s.Len())
		}
	}
}

func TestStoreEvictedEntryRecomputes(t *testing.T) {
	s := NewStore(1)
	var calls atomic.Int64
	if _, err := s.GetOrComputeVector("b", 1, 1, constVec(&calls, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetOrComputeVector("b", 1, 2, constVec(&calls, 2)); err != nil {
		t.Fatal(err)
	}
	// 1 was evicted by 2; asking again recomputes.
	if _, err := s.GetOrComputeVector("b", 1, 1, constVec(&calls, 1)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Errorf("compute ran %d times, want 3 (evicted entry recomputed)", calls.Load())
	}
}

func TestStoreErrorsAreNotCached(t *testing.T) {
	s := NewStore(8)
	fail := errors.New("substrate offline")
	var calls atomic.Int64
	if _, err := s.GetOrComputeVector("b", 1, 7, func() ([]float64, error) {
		calls.Add(1)
		return nil, fail
	}); !errors.Is(err, fail) {
		t.Fatalf("err = %v, want the compute error", err)
	}
	if s.Contains("b", 1, 7) {
		t.Error("failed entry left resident")
	}
	vals, err := s.GetOrComputeVector("b", 1, 7, constVec(&calls, 3))
	if err != nil || !reflect.DeepEqual(vals, []float64{3}) {
		t.Errorf("retry after error = %v, %v; want [3], nil", vals, err)
	}
	if calls.Load() != 2 {
		t.Errorf("compute ran %d times, want 2 (error retried)", calls.Load())
	}
}

func TestStoreScalarAndVectorShareEntries(t *testing.T) {
	s := NewStore(8)
	var calls atomic.Int64
	v, err := s.GetOrCompute("b", 1, 5, func() (float64, error) {
		calls.Add(1)
		return 2.5, nil
	})
	if err != nil || v != 2.5 {
		t.Fatalf("GetOrCompute = %v, %v", v, err)
	}
	vals, err := s.GetOrComputeVector("b", 1, 5, constVec(&calls, 99))
	if err != nil || !reflect.DeepEqual(vals, []float64{2.5}) {
		t.Errorf("vector view = %v, %v; want shared [2.5]", vals, err)
	}
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
}

func TestStoreConcurrentSingleFlight(t *testing.T) {
	// Many goroutines race on a small key space: each distinct key must
	// compute exactly once, every caller must see the right value, and
	// hits+misses must equal total lookups. Run under -race.
	s := NewStore(256)
	const goroutines, iters, distinct = 16, 300, 8
	var computes atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for w := 0; w < goroutines; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sig := uint64((w + i) % distinct)
				vals, err := s.GetOrComputeVector("b", 1, sig, func() ([]float64, error) {
					computes.Add(1)
					return []float64{float64(sig), 2 * float64(sig)}, nil
				})
				if err != nil {
					errs[w] = err
					return
				}
				if len(vals) != 2 || vals[0] != float64(sig) || vals[1] != 2*float64(sig) {
					errs[w] = fmt.Errorf("sig %d: vals = %v", sig, vals)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := computes.Load(); got != distinct {
		t.Errorf("compute ran %d times under contention, want %d", got, distinct)
	}
	st := s.Stats()
	if total := st.Hits + st.Misses; total != goroutines*iters {
		t.Errorf("hits+misses = %d, want %d lookups", total, goroutines*iters)
	}
	if st.Misses != distinct {
		t.Errorf("misses = %d, want %d", st.Misses, distinct)
	}
	if st.Entries != distinct {
		t.Errorf("entries = %d, want %d", st.Entries, distinct)
	}
}

func TestStoreCapacityDefaults(t *testing.T) {
	if got := NewStore(0).Stats().Capacity; got < DefaultStoreCapacity {
		t.Errorf("default capacity = %d, want >= %d", got, DefaultStoreCapacity)
	}
	// Tiny capacities collapse the shard count rather than rounding the
	// per-shard capacity to zero.
	s := NewStore(2)
	var calls atomic.Int64
	for sig := uint64(0); sig < 10; sig++ {
		if _, err := s.GetOrComputeVector("b", 1, sig, constVec(&calls, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() == 0 || s.Len() > 2 {
		t.Errorf("capacity-2 store holds %d entries", s.Len())
	}
}
