//go:build unix

package costdb

import (
	"errors"
	"syscall"
	"testing"
	"unsafe"
)

// trackMappings replaces the mapping system calls for the duration of
// the test: every failEvery-th mapping is refused (0 refuses none), and
// unmapping anything that is not a live mapping fails the test — a heap
// chunk handed to munmap would tear pages out of the Go heap. It returns
// a count of the live mappings.
func trackMappings(t *testing.T, failEvery int) (live func() int) {
	mapped := map[*byte]int{}
	calls := 0
	mmap = func(fd int, off int64, n, prot, flags int) ([]byte, error) {
		if calls++; failEvery > 0 && calls%failEvery == 0 {
			return nil, errors.New("mapping refused")
		}
		b, err := syscall.Mmap(fd, off, n, prot, flags)
		if err == nil {
			mapped[unsafe.SliceData(b)] = len(b)
		}
		return b, err
	}
	munmap = func(b []byte) error {
		if n, ok := mapped[unsafe.SliceData(b)]; !ok || n != len(b) {
			t.Errorf("unmapping %d bytes that are not a live mapping", len(b))
			return syscall.EINVAL
		}
		delete(mapped, unsafe.SliceData(b))
		return syscall.Munmap(b)
	}
	t.Cleanup(func() { mmap, munmap = syscall.Mmap, syscall.Munmap })
	return func() int { return len(mapped) }
}

// assertMappingsReleased tracks every mapping made from here on and fails
// the test if any is still live once the cleanups registered after this
// call — stores a test abandons — have run.
func assertMappingsReleased(t *testing.T) {
	live := trackMappings(t, 0)
	t.Cleanup(func() {
		if n := live(); n != 0 {
			t.Errorf("%d mappings left after every store is gone", n)
		}
	})
}

// TestContentsHeapFallbackReindex refuses every other mapping, so the
// table mixes mapped and heap chunks and its index moves between the two
// as it grows: lookups must stay right, and growth and release must
// unmap exactly the mappings.
func TestContentsHeapFallbackReindex(t *testing.T) {
	live := trackMappings(t, 2)
	c := newContents()
	const n = 20000 // several record chunks and index growths
	for i := uint64(0); i < n; i++ {
		vals := []float64{float64(i)}
		if i%7 == 0 {
			vals = append(vals, -float64(i)) // an arena vector
		}
		if _, err := c.put("gpu/x", 1, i, vals, false); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.regions) == 0 || len(c.regions) == len(c.sigs.chunks)*3+len(c.arena) {
		t.Fatalf("%d of the chunks mapped: want a mix of mapped and heap chunks", len(c.regions))
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := c.get("gpu/x", 1, i); !ok || v[0] != float64(i) {
			t.Fatalf("get %d = %v, %v", i, v, ok)
		}
	}
	c.release()
	if n := live(); n != 0 {
		t.Errorf("%d mappings left after release", n)
	}
	if _, ok := c.get("gpu/x", 1, 1); ok {
		t.Error("released table still finds entries")
	}
}

// TestPersistentReopenUnmaps opens and closes a populated store many
// times: Close must return every mapping the table made.
func TestPersistentReopenUnmaps(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		put(t, p, "gpu/test", uint64(i), float64(i))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	live := trackMappings(t, 0)
	for i := 0; i < 20; i++ {
		p, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if live() == 0 {
			t.Fatal("an open store maps nothing")
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if n := live(); n != 0 {
			t.Fatalf("cycle %d: %d mappings left after Close", i, n)
		}
	}
}
