package costdb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// put inserts one computed value, failing the test on error.
func put(t *testing.T, p *Persistent, backend string, sig uint64, vals ...float64) {
	t.Helper()
	got, err := p.GetOrComputeVector(backend, 1, sig, func() ([]float64, error) {
		return vals, nil
	})
	if err != nil {
		t.Fatalf("put %s/%d: %v", backend, sig, err)
	}
	if len(got) != len(vals) {
		t.Fatalf("put %s/%d returned %v, want %v", backend, sig, got, vals)
	}
}

// mustNotCompute returns a compute func that fails the test if invoked.
func mustNotCompute(t *testing.T, key string) func() ([]float64, error) {
	return func() ([]float64, error) {
		t.Errorf("compute ran for %s on what should be a warm store", key)
		return nil, fmt.Errorf("unexpected compute")
	}
}

// crash abandons p the way a killed process would: nothing is flushed,
// compacted or closed. Only at test cleanup are its table and WAL handle
// released, as the dead process's exit would have released them.
func crash(t *testing.T, p *Persistent) {
	t.Cleanup(func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.wal.Close()
		p.closed = true
		p.entries.release()
	})
}

func TestPersistentWriteThroughAndWarmBoot(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, p, "gpu/test", 1, 10)
	put(t, p, "gpu/test", 2, 20, 21)
	put(t, p, "magnet/E", 1, 30)
	if st := p.Stats(); st.Entries != 3 || st.Appends != 3 || st.WALRecords != 3 || st.LoadedEntries != 0 {
		t.Errorf("stats after inserts: %+v", st)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close compacts: snapshot exists, WAL is empty.
	if _, err := os.Stat(filepath.Join(dir, SnapshotFile)); err != nil {
		t.Fatalf("no snapshot after Close: %v", err)
	}

	p2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	if st := p2.Stats(); st.LoadedEntries != 3 || st.Entries != 3 || st.WALRecords != 0 {
		t.Errorf("warm-boot stats: %+v", st)
	}
	got, err := p2.GetOrComputeVector("gpu/test", 1, 2, mustNotCompute(t, "gpu/test/2"))
	if err != nil || len(got) != 2 || got[0] != 20 || got[1] != 21 {
		t.Errorf("warm lookup = %v, %v; want [20 21]", got, err)
	}
}

func TestPersistentCrashRecoveryFromWAL(t *testing.T) {
	assertMappingsReleased(t)
	dir := t.TempDir()
	p, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, p, "gpu/test", 1, 10)
	put(t, p, "gpu/test", 2, 20)
	// Simulated crash: no Flush, no Close — the WAL alone carries the
	// inserts.
	crash(t, p)

	p2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer p2.Close()
	if st := p2.Stats(); st.LoadedEntries != 2 {
		t.Fatalf("recovered %d entries, want 2 (stats %+v)", st.LoadedEntries, st)
	}
	if got, err := p2.GetOrComputeVector("gpu/test", 1, 1, mustNotCompute(t, "gpu/test/1")); err != nil || got[0] != 10 {
		t.Errorf("recovered lookup = %v, %v", got, err)
	}
}

func TestPersistentTornWALTailRecovered(t *testing.T) {
	assertMappingsReleased(t)
	dir := t.TempDir()
	p, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, p, "gpu/test", 1, 10)
	put(t, p, "gpu/test", 2, 20)
	crash(t, p)
	// Crash mid-append: chop bytes off the WAL tail.
	walPath := filepath.Join(dir, WALFile)
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	defer p2.Close()
	// The first record survives; the torn second one is gone and
	// recomputes on demand.
	if st := p2.Stats(); st.LoadedEntries != 1 {
		t.Fatalf("loaded %d entries after torn tail, want 1", st.LoadedEntries)
	}
	if got, err := p2.GetOrComputeVector("gpu/test", 1, 1, mustNotCompute(t, "gpu/test/1")); err != nil || got[0] != 10 {
		t.Errorf("surviving entry = %v, %v", got, err)
	}
	recomputed := false
	if _, err := p2.GetOrComputeVector("gpu/test", 1, 2, func() ([]float64, error) {
		recomputed = true
		return []float64{20}, nil
	}); err != nil || !recomputed {
		t.Errorf("torn entry recompute = %v, recomputed=%v", err, recomputed)
	}
}

func TestPersistentCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, p, "gpu/test", 1, 10)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, SnapshotFile)
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0xff // corrupt the stored checksum
	if err := os.WriteFile(snapPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, nil, Options{})
	if err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if !strings.Contains(err.Error(), "checksum") || !strings.Contains(err.Error(), SnapshotFile) {
		t.Errorf("corrupt-snapshot error not actionable: %v", err)
	}
}

func TestPersistentAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every couple of inserts triggers a compaction.
	p, err := Open(dir, nil, Options{CompactWALBytes: 64, CompactAge: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		put(t, p, "gpu/test", i, float64(i))
	}
	st := p.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no auto-compaction after 20 inserts at a 64-byte threshold: %+v", st)
	}
	if st.Entries != 20 {
		t.Errorf("entries = %d, want 20", st.Entries)
	}
	// Compaction must not lose data across a crash (no Close).
	p2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if st := p2.Stats(); st.LoadedEntries != 20 {
		t.Errorf("reloaded %d entries after auto-compaction, want 20", st.LoadedEntries)
	}
}

func TestPersistentFlushAgeCompacts(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(dir, nil, Options{CompactWALBytes: -1, CompactAge: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	put(t, p, "gpu/test", 1, 10)
	time.Sleep(2 * time.Millisecond)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Compactions != 1 || st.WALRecords != 0 {
		t.Errorf("age-triggered flush did not compact: %+v", st)
	}
}

func TestPersistentGoldenExportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, p, "gpu/test", 5, 1.25)
	put(t, p, "magnet/E", 5, 2.5, 3.75)
	put(t, p, "gpu/test", 1, 0.5)
	var before bytes.Buffer
	if err := p.ExportTo(&before); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// store → snapshot → load → export must be byte-identical.
	p2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := p2.ExportTo(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("export after snapshot round trip differs from export before")
	}
	// The on-disk snapshot itself is the same canonical stream.
	disk, err := os.ReadFile(filepath.Join(dir, SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), disk) {
		t.Error("on-disk snapshot differs from ExportTo stream")
	}
	p2.Close()

	// Import into a fresh store reproduces the contents exactly.
	p3, err := Open(t.TempDir(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	total, added, err := p3.Import(bytes.NewReader(before.Bytes()))
	if err != nil || total != 3 || added != 3 {
		t.Fatalf("import: total=%d added=%d err=%v", total, added, err)
	}
	var imported bytes.Buffer
	if err := p3.ExportTo(&imported); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), imported.Bytes()) {
		t.Error("export after import differs")
	}
	// Re-import is idempotent.
	total, added, err = p3.Import(bytes.NewReader(before.Bytes()))
	if err != nil || total != 3 || added != 0 {
		t.Errorf("re-import: total=%d added=%d err=%v, want 3 present", total, added, err)
	}
}

func TestPersistentConcurrentInsertDuringFlush(t *testing.T) {
	dir := t.TempDir()
	// Aggressive thresholds so flushes compact while inserts race.
	p, err := Open(dir, nil, Options{CompactWALBytes: 256, CompactAge: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perW    = 50
	)
	var wg sync.WaitGroup
	var inserted atomic.Int64
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := p.Flush(); err != nil {
				t.Errorf("Flush under load: %v", err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				sig := uint64(w*perW + i)
				if _, err := p.GetOrComputeVector("gpu/test", 1, sig, func() ([]float64, error) {
					return []float64{float64(sig)}, nil
				}); err != nil {
					t.Errorf("insert %d: %v", sig, err)
					return
				}
				inserted.Add(1)
			}
		}()
	}
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	// Stop the flusher once all inserts are in.
	for inserted.Load() < workers*perW {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-wgDone
	if st := p.Stats(); st.Entries != workers*perW {
		t.Errorf("entries = %d, want %d", st.Entries, workers*perW)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if st := p2.Stats(); st.LoadedEntries != workers*perW {
		t.Errorf("reloaded %d entries, want %d", st.LoadedEntries, workers*perW)
	}
}

func TestPersistentDiskHitAfterInnerMiss(t *testing.T) {
	// A bounded inner cache evicts; the durable tier answers without
	// recompute.
	dir := t.TempDir()
	p, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, p, "gpu/test", 1, 10)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Fresh inner each open; look the entry up twice — first goes to the
	// pre-warmed inner, then drop to a cold memCache via a fresh open to
	// exercise the disk-hit path explicitly.
	p2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if _, err := p2.GetOrComputeVector("gpu/test", 1, 1, mustNotCompute(t, "gpu/test/1")); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentClosedRejectsInserts(t *testing.T) {
	p, err := Open(t.TempDir(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	_, err = p.GetOrComputeVector("gpu/test", 1, 9, func() ([]float64, error) {
		return []float64{1}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("insert into closed store: %v", err)
	}
}

func TestPersistentComputeErrorNotPersisted(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("backend exploded")
	if _, err := p.GetOrComputeVector("gpu/test", 1, 1, func() ([]float64, error) {
		return nil, boom
	}); err == nil {
		t.Fatal("error compute succeeded")
	}
	if st := p.Stats(); st.Entries != 0 || st.Appends != 0 {
		t.Errorf("failed compute left durable state: %+v", st)
	}
	// The key retries and persists on success.
	put(t, p, "gpu/test", 1, 10)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentImportCorruptStreamCommitsNothing(t *testing.T) {
	src, err := Open(t.TempDir(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	put(t, src, "gpu/test", 1, 10)
	put(t, src, "gpu/test", 2, 20)
	var snap bytes.Buffer
	if err := src.ExportTo(&snap); err != nil {
		t.Fatal(err)
	}
	b := snap.Bytes()
	b[len(b)/2] ^= 0xff // corrupt a payload byte mid-stream

	dst, err := Open(t.TempDir(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if _, _, err := dst.Import(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupt stream imported")
	}
	// Entries that parsed before the checksum mismatch must NOT have
	// become durable: snapshot entries carry no per-entry CRC, so a
	// partially committed import could seed wrong costs forever.
	if st := dst.Stats(); st.Entries != 0 || st.Appends != 0 || st.WALRecords != 0 {
		t.Errorf("corrupt import left durable state: %+v", st)
	}
	recomputed := false
	if _, err := dst.GetOrComputeVector("gpu/test", 1, 1, func() ([]float64, error) {
		recomputed = true
		return []float64{10}, nil
	}); err != nil || !recomputed {
		t.Errorf("key from rejected import should recompute: err=%v recomputed=%v", err, recomputed)
	}
}
