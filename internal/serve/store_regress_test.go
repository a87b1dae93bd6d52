package serve

// Regression tests for the store's failure handling: a stale failure must
// never knock out a fresh entry that replaced it (the evict-before-compute
// race), and Range must stay safe under eviction. The generic mechanics
// are tested in internal/lru; these pin that the Store wiring keeps them.

import (
	"fmt"
	"sync"
	"testing"
)

// TestStoreEvictBeforeComputeKeepsFreshEntry: an inserter's entry is
// evicted while its compute is still in flight, the key is re-inserted
// fresh by another caller, and only then does the original compute fail.
// The stale failure must not remove the fresh entry (removal checks
// identity, not just the key).
func TestStoreEvictBeforeComputeKeepsFreshEntry(t *testing.T) {
	s := NewStore(1) // capacity 1: any second key evicts the first
	started := make(chan struct{})
	release := make(chan struct{})
	boom := fmt.Errorf("slow compute failed")

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := s.GetOrComputeVector("b", 1, 1, func() ([]float64, error) {
			close(started)
			<-release
			return nil, boom
		})
		if err != boom {
			t.Errorf("evicted inserter err = %v, want %v", err, boom)
		}
	}()
	<-started

	// Another key evicts the in-flight entry...
	if _, err := s.GetOrComputeVector("b", 1, 2, func() ([]float64, error) {
		return []float64{2}, nil
	}); err != nil {
		t.Fatal(err)
	}
	// ...and the original key is re-inserted fresh and succeeds.
	if _, err := s.GetOrComputeVector("b", 1, 1, func() ([]float64, error) {
		return []float64{1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !s.Contains("b", 1, 1) {
		t.Fatal("fresh entry missing before the stale failure resolved")
	}

	close(release)
	<-done

	// The stale failure must not have dropped the fresh, healthy entry.
	if !s.Contains("b", 1, 1) {
		t.Error("stale failure removed the fresh entry for its key")
	}
	hit := true
	if _, err := s.GetOrComputeVector("b", 1, 1, func() ([]float64, error) {
		hit = false
		return []float64{1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("fresh entry recomputed; the stale failure evidently removed it")
	}
	if st := s.Stats(); st.Errors != 1 {
		t.Errorf("errors = %d, want exactly the one stale failure", st.Errors)
	}
}

// TestStoreRangeDuringEviction races Range against insert-driven
// eviction and lookups on a store far smaller than the working set; the
// assertions are structural (Range only yields completed, healthy
// entries; the store stays within capacity), the scheduling check is
// the race detector in `make ci`.
func TestStoreRangeDuringEviction(t *testing.T) {
	s := NewStore(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sig := uint64((g*500 + i) % 64) // rotate well past capacity
				if _, err := s.GetOrComputeVector("b", 1, sig, func() ([]float64, error) {
					if sig%7 == 3 {
						return nil, fmt.Errorf("synthetic failure")
					}
					return []float64{float64(sig)}, nil
				}); err != nil && sig%7 != 3 {
					t.Errorf("unexpected error for sig %d: %v", sig, err)
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
				s.Range(func(backend string, epoch, sig uint64, vals []float64) bool {
					if len(vals) == 0 {
						t.Error("Range yielded an entry with no values")
						return false
					}
					if vals[0] != float64(sig) {
						t.Errorf("Range yielded sig %d with value %v", sig, vals[0])
						return false
					}
					return true
				})
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Entries > st.Capacity {
		t.Errorf("store over capacity: %d > %d", st.Entries, st.Capacity)
	}
	if st.Errors == 0 {
		t.Error("synthetic failures never surfaced; stress is vacuous")
	}
}
