package costdb

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vitdyn/internal/engine"
)

// File names inside a store directory.
const (
	SnapshotFile = "snapshot.vcdb"
	WALFile      = "wal.vcdb"
)

// Defaults for Options zero values.
const (
	// DefaultCompactWALBytes triggers auto-compaction once the WAL
	// carries this many record bytes: large enough that steady-state
	// serving compacts rarely, small enough that replay on boot stays
	// trivially fast.
	DefaultCompactWALBytes = 1 << 20
	// DefaultCompactAge is how stale the last compaction may get before
	// Flush folds outstanding WAL records into a fresh snapshot.
	DefaultCompactAge = 5 * time.Minute
)

// Options tunes a Persistent store. The zero value selects the defaults
// above; negative values disable the corresponding trigger (compaction
// then only happens on Close).
type Options struct {
	// CompactWALBytes auto-compacts (fresh snapshot, truncated WAL) when
	// the WAL exceeds this many bytes past its header — and half the size
	// of the current snapshot, so each rewrite of the full contents is
	// paid for by a proportional amount of new records and compaction
	// work stays linear in inserts however large the store grows. 0
	// selects DefaultCompactWALBytes; < 0 disables size-triggered
	// compaction.
	CompactWALBytes int64
	// CompactAge makes Flush compact when the last compaction is older
	// than this and the WAL is non-empty. 0 selects DefaultCompactAge;
	// < 0 disables age-triggered compaction.
	CompactAge time.Duration
	// StaleEpoch, when non-nil, lets compaction retire entries whose
	// backend has moved to a new cost-model epoch: every compaction drops
	// entries for which StaleEpoch(backend, epoch) returns true before
	// writing the snapshot, so a backend upgrade reclaims its stale costs
	// instead of carrying them forever. engine.StaleEpoch is the
	// canonical implementation; nil never retires.
	StaleEpoch func(backend string, epoch uint64) bool
}

func (o Options) withDefaults() Options {
	if o.CompactWALBytes == 0 {
		o.CompactWALBytes = DefaultCompactWALBytes
	}
	if o.CompactAge == 0 {
		o.CompactAge = DefaultCompactAge
	}
	return o
}

// Persistent is a durable tier under any engine.CostCache: lookups hit
// the inner (fast, possibly LRU-bounded) cache first, fall back to the
// durable contents loaded from disk, and only then run the real compute
// — whose result is write-through appended to the WAL. It implements
// engine.CostCache itself, so it drops into NewWithCache, SetDefaultCache
// and the serving layer unchanged. A Persistent is safe for concurrent
// use; Close (or at least Flush) should run before process exit to bound
// the replay work of the next boot.
type Persistent struct {
	inner engine.CostCache
	dir   string
	opts  Options

	mu           sync.RWMutex // guards entries, wal file state, compaction
	entries      *contents    // insert-ordered: seq N is record N-1, the delta-export cursor space
	gen          uint64       // incarnation id stamping cursors (see Head)
	wal          *os.File
	walBytes     int64
	walRecords   int64
	snapBytes    int64 // size of the last snapshot written or loaded
	lastCompact  time.Time
	lastFlushErr string // last Flush failure; cleared by the next success
	closed       bool

	loaded      int
	diskHits    atomic.Int64
	appends     atomic.Int64
	compactions atomic.Int64
	retired     atomic.Int64
	flushErrors atomic.Int64
	lastFlushMS atomic.Int64 // unix milliseconds
}

var _ engine.CostCache = (*Persistent)(nil)

// Open loads (or initializes) the durable store in dir and composes it
// under inner: the snapshot is read whole — a checksum or format error
// rejects the store rather than serving a partial load — then the WAL is
// replayed on top, truncating a torn tail. Every loaded entry pre-warms
// inner, so a warm boot's first requests are fast-tier hits. A nil inner
// selects a built-in unbounded map cache, making costdb usable without
// the serving layer.
func Open(dir string, inner engine.CostCache, opts Options) (*Persistent, error) {
	if inner == nil {
		inner = newMemCache()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("costdb: creating store directory: %w", err)
	}
	p := &Persistent{
		inner:   inner,
		dir:     dir,
		opts:    opts.withDefaults(),
		entries: newContents(),
		gen:     newGeneration(),
	}

	snapPath := filepath.Join(dir, SnapshotFile)
	if f, err := os.Open(snapPath); err == nil {
		// Commit the snapshot only if it verifies end to end. Its
		// entries seed the insert log in snapshot order (any order does —
		// the fresh generation means no live cursor refers into it yet),
		// then WAL replay extends it in record order.
		scratch := newContents()
		_, rerr := ReadSnapshot(f, func(e Entry) error {
			_, err := scratch.put(e.Backend, e.Epoch, e.Sig, e.Vals, true)
			return err
		})
		if fi, err := f.Stat(); err == nil {
			p.snapBytes = fi.Size()
		}
		f.Close()
		if rerr != nil {
			scratch.release()
			return nil, fmt.Errorf("costdb: loading snapshot %s: %w", snapPath, rerr)
		}
		p.entries = scratch
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("costdb: opening snapshot: %w", err)
	}
	wal, records, walBytes, err := openWAL(filepath.Join(dir, WALFile), func(e Entry) error {
		_, err := p.entries.put(e.Backend, e.Epoch, e.Sig, e.Vals, true)
		return err
	})
	if err != nil {
		p.entries.release()
		return nil, err
	}
	p.wal = wal
	p.walRecords = records
	p.walBytes = walBytes
	p.loaded = p.entries.live
	p.lastCompact = time.Now()
	p.lastFlushMS.Store(time.Now().UnixMilli())

	// Pre-warm the fast tier so a warm boot's first catalog request is
	// all inner-cache hits (the inserts register as one miss each in an
	// accounting store — boot cost, visible once).
	for i := 0; i < p.entries.nrecs; i++ {
		e, _ := p.entries.entry(i) // nothing is retired before the first compaction
		if _, err := inner.GetOrComputeVector(e.Backend, e.Epoch, e.Sig, func() ([]float64, error) {
			return slices.Clone(e.Vals), nil
		}); err != nil {
			p.wal.Close()
			p.entries.release()
			return nil, fmt.Errorf("costdb: pre-warming inner cache: %w", err)
		}
	}
	return p, nil
}

// Dir returns the store directory.
func (p *Persistent) Dir() string { return p.dir }

// GetOrComputeVector implements engine.CostCache with three tiers:
// inner cache, durable contents, then compute — a genuine compute is
// write-through appended to the WAL before it is returned, so anything
// the process ever priced survives a restart. Append failures (disk
// full, store closed) surface as errors rather than silently dropping
// durability. The returned slice is shared and must not be mutated.
func (p *Persistent) GetOrComputeVector(backend string, epoch, sig uint64, compute func() ([]float64, error)) ([]float64, error) {
	return p.inner.GetOrComputeVector(backend, epoch, sig, func() ([]float64, error) {
		p.mu.RLock()
		vals, ok := p.entries.get(backend, epoch, sig)
		if ok {
			vals = slices.Clone(vals) // Close unmaps the table
		}
		p.mu.RUnlock()
		if ok {
			p.diskHits.Add(1)
			return vals, nil
		}
		vals, err := compute()
		if err != nil {
			return nil, err
		}
		if _, err := p.append(backend, epoch, sig, vals, true); err != nil {
			return nil, err
		}
		return vals, nil
	})
}

// append durably records one insert: WAL first, then the in-memory
// contents, then (when allowCompact) a size-triggered compaction. It
// reports whether the entry was new — a concurrent racer may have
// landed it already, in which case nothing is written. Bulk writers
// (Import) pass allowCompact=false and compact once at the end; letting
// every ~CompactWALBytes of a large import rewrite the ever-growing
// snapshot would turn the import quadratic.
func (p *Persistent) append(backend string, epoch, sig uint64, vals []float64, allowCompact bool) (bool, error) {
	rec, err := encodeWALRecord(Entry{Backend: backend, Epoch: epoch, Sig: sig, Vals: vals})
	if err != nil {
		return false, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false, fmt.Errorf("costdb: store is closed")
	}
	if _, ok := p.entries.get(backend, epoch, sig); ok {
		return false, nil
	}
	if _, err := p.wal.Write(rec); err != nil {
		return false, fmt.Errorf("costdb: wal append: %w", err)
	}
	p.walBytes += int64(len(rec))
	p.walRecords++
	if _, err := p.entries.put(backend, epoch, sig, vals, false); err != nil {
		return false, err
	}
	p.appends.Add(1)
	if allowCompact && p.walFull() {
		if err := p.compactLocked(); err != nil {
			return false, err
		}
	}
	return true, nil
}

// walFull reports whether the WAL has grown enough to trigger a
// size-based compaction (see Options.CompactWALBytes). Caller holds p.mu.
func (p *Persistent) walFull() bool {
	return p.opts.CompactWALBytes > 0 && p.walBytes >= max(p.opts.CompactWALBytes, p.snapBytes/2)
}

// compactLocked folds the full contents into a fresh snapshot (atomic
// rename) and truncates the WAL. Snapshot-then-truncate ordering makes a
// crash between the two harmless: the stale WAL replays the same values
// over the new snapshot. When Options.StaleEpoch is set, entries whose
// backend has moved to a new epoch are retired first — compaction is
// the natural reclaim point, since the snapshot is being rewritten
// anyway. Caller holds p.mu.
func (p *Persistent) compactLocked() error {
	if stale := p.opts.StaleEpoch; stale != nil {
		p.retired.Add(int64(p.entries.retire(stale)))
	}
	size, err := writeSnapshotFile(filepath.Join(p.dir, SnapshotFile), p.entries.live, p.entries.sorted)
	if err != nil {
		return err
	}
	p.snapBytes = size
	if err := p.wal.Truncate(int64(len(walMagic))); err != nil {
		return fmt.Errorf("costdb: truncating wal after compaction: %w", err)
	}
	if _, err := p.wal.Seek(int64(len(walMagic)), io.SeekStart); err != nil {
		return fmt.Errorf("costdb: seeking wal after compaction: %w", err)
	}
	p.walBytes, p.walRecords = 0, 0
	p.compactions.Add(1)
	p.lastCompact = time.Now()
	p.lastFlushMS.Store(time.Now().UnixMilli())
	return nil
}

// Flush makes everything appended so far durable: it fsyncs the WAL, or
// — when the last compaction is older than Options.CompactAge and the
// WAL is non-empty — compacts instead, which is both durable and faster
// to replay.
func (p *Persistent) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("costdb: store is closed")
	}
	// Outcome tracking feeds Stats.FlushErrors/LastFlushError, which
	// the serving layer surfaces as degraded health while flushes keep
	// failing; one success clears it.
	err := p.flushLocked()
	if err != nil {
		p.flushErrors.Add(1)
		p.lastFlushErr = err.Error()
	} else {
		p.lastFlushErr = ""
	}
	return err
}

// flushLocked is Flush's body; caller holds p.mu and has checked closed.
func (p *Persistent) flushLocked() error {
	if p.opts.CompactAge > 0 && p.walRecords > 0 && time.Since(p.lastCompact) >= p.opts.CompactAge {
		return p.compactLocked()
	}
	if err := p.wal.Sync(); err != nil {
		return fmt.Errorf("costdb: syncing wal: %w", err)
	}
	p.lastFlushMS.Store(time.Now().UnixMilli())
	return nil
}

// Compact forces a compaction now (a fresh snapshot of the full
// contents and an empty WAL), regardless of thresholds.
func (p *Persistent) Compact() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("costdb: store is closed")
	}
	return p.compactLocked()
}

// Close compacts outstanding WAL records into a fresh snapshot — the
// next boot loads one checksummed file and replays nothing — then closes
// the store and releases its in-memory contents. Close is idempotent; a
// closed store rejects inserts and exports, computes what its inner
// cache misses, and keeps its Stats readable.
func (p *Persistent) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	var firstErr error
	if p.walRecords > 0 {
		firstErr = p.compactLocked()
	}
	if err := p.wal.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("costdb: closing wal: %w", err)
	}
	p.closed = true
	p.entries.release()
	return firstErr
}

// ExportTo streams the full durable contents to w in the snapshot
// format, in canonical order — identical contents always produce
// identical bytes, so export/import round-trips are byte-comparable.
// The stream a fresh daemon imports is exactly what ExportTo writes.
func (p *Persistent) ExportTo(w io.Writer) error {
	// Copy the entries out under the lock, so a slow reader never holds
	// up inserts.
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return fmt.Errorf("costdb: store is closed")
	}
	entries := make([]Entry, 0, p.entries.live)
	_ = p.entries.sorted(func(e Entry) error {
		entries = append(entries, e)
		return nil
	})
	detach(entries)
	p.mu.RUnlock()
	return WriteSnapshot(w, entries)
}

// detach copies the entries' values, which alias the table, into one
// heap buffer, so they stay valid after the lock is released.
func detach(entries []Entry) {
	n := 0
	for _, e := range entries {
		n += len(e.Vals)
	}
	buf := make([]float64, 0, n)
	for i := range entries {
		at := len(buf)
		buf = append(buf, entries[i].Vals...)
		entries[i].Vals = buf[at:len(buf):len(buf)]
	}
}

// genCounter disambiguates generations minted within one clock tick.
var genCounter atomic.Uint64

// newGeneration mints a store-incarnation id: the boot time mixed with
// a process-wide counter, never 0 (0 is the "uncursored server" marker
// in DeltaHeader). What matters is uniqueness across restarts — a
// restarted store rebuilds its insert log in a different order, so a
// cursor minted against the previous incarnation must read as stale.
func newGeneration() uint64 {
	g := uint64(time.Now().UnixNano())*2654435761 ^ (genCounter.Add(1) << 48)
	if g == 0 {
		g = 1
	}
	return g
}

// Head returns the store's current cursor: its incarnation generation
// plus the insert-log length. A client that has applied a delta up to
// Head holds the store's full contents.
func (p *Persistent) Head() Cursor {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return Cursor{Gen: p.gen, Seq: uint64(p.entries.nrecs)}
}

// ExportDeltaTo streams everything inserted since the cursor to w in
// the delta format and returns the stream's header — whose Next() is
// the caller's new cursor — plus how many entries it carried. A zero
// cursor, a cursor from another incarnation, or one past the log's head
// all degrade to a full dump (From 0) in the same framing, so cold
// start and steady state share one client path. Entries retired by
// compaction since their insert are skipped: the receiving side would
// drop them as stale-epoch records anyway. The insert log itself
// survives compaction untouched — cursors stay valid for the life of
// the incarnation.
func (p *Persistent) ExportDeltaTo(w io.Writer, since Cursor) (DeltaHeader, int, error) {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return DeltaHeader{}, 0, fmt.Errorf("costdb: store is closed")
	}
	from := since.Seq
	head := uint64(p.entries.nrecs)
	if since.Gen != p.gen || from > head {
		from = 0
	}
	entries := make([]Entry, 0, head-from)
	for i := from; i < head; i++ {
		if e, live := p.entries.entry(int(i)); live {
			entries = append(entries, e)
		}
	}
	detach(entries)
	hdr := DeltaHeader{Gen: p.gen, From: from, To: head}
	p.mu.RUnlock()
	err := WriteDelta(w, hdr, entries)
	return hdr, len(entries), err
}

// Import merges a snapshot stream (as produced by ExportTo, or a raw
// snapshot file) into the store: new entries are WAL-appended and
// pre-warm the inner cache, entries already present are left untouched
// (first write wins — costs are pure functions of their key, so a
// conflicting value for a known key would mean a backend changed, which
// versioned backend names are expected to reflect). The whole stream is
// verified — trailing checksum included — before anything commits, so a
// snapshot corrupted in transit rejects cleanly instead of poisoning
// the store with durable wrong costs. Returns how many entries the
// stream held and how many were new.
func (p *Persistent) Import(r io.Reader) (total, added int, err error) {
	// Stage first: snapshot entries carry no per-entry checksum, only
	// the stream-wide trailing CRC, so nothing may become durable until
	// ReadSnapshot has verified every byte.
	var staged []Entry
	total, err = ReadSnapshot(r, func(e Entry) error {
		staged = append(staged, e)
		return nil
	})
	if err != nil {
		return total, 0, err
	}
	for _, e := range staged {
		// Compaction is deferred (see append) and run once below.
		isNew, aerr := p.append(e.Backend, e.Epoch, e.Sig, e.Vals, false)
		if aerr != nil {
			return total, added, aerr
		}
		if !isNew {
			continue
		}
		added++
		vals := e.Vals
		if _, werr := p.inner.GetOrComputeVector(e.Backend, e.Epoch, e.Sig, func() ([]float64, error) {
			return vals, nil
		}); werr != nil {
			return total, added, werr
		}
	}
	// Make the import durable in one step: compact if the WAL grew past
	// its threshold, else just fsync the appended records.
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return total, added, nil
	}
	if p.walFull() {
		return total, added, p.compactLocked()
	}
	if err := p.wal.Sync(); err != nil {
		return total, added, fmt.Errorf("costdb: syncing wal after import: %w", err)
	}
	p.lastFlushMS.Store(time.Now().UnixMilli())
	return total, added, nil
}

// Stats is a point-in-time view of the durable tier, exposed by the
// vitdynd /statsz costdb section and the cmds' -cache-path teardown
// line.
type Stats struct {
	// LoadedEntries is how many entries Open found on disk (snapshot +
	// replayed WAL) — the warm-boot seed.
	LoadedEntries int `json:"loaded_entries"`
	// Entries is the current durable entry count.
	Entries int `json:"entries"`
	// WALBytes and WALRecords describe the un-compacted tail.
	WALBytes   int64 `json:"wal_bytes"`
	WALRecords int64 `json:"wal_records"`
	// Appends counts write-through inserts since open; DiskHits counts
	// lookups served from the durable contents after the fast tier
	// missed (e.g. post-eviction, or lazily after a boot).
	Appends  int64 `json:"appends"`
	DiskHits int64 `json:"disk_hits"`
	// Compactions counts snapshot rewrites (size- or age-triggered, and
	// the one Close performs).
	Compactions int64 `json:"compactions"`
	// Retired counts entries dropped at compaction because their backend
	// moved to a new cost-model epoch (Options.StaleEpoch).
	Retired int64 `json:"retired"`
	// LastFlushAgeMS is how long ago the store last made its tail
	// durable (fsync or compaction).
	LastFlushAgeMS int64 `json:"last_flush_age_ms"`
	// FlushErrors counts Flush calls that failed since open;
	// LastFlushError is the most recent failure, "" once a flush
	// succeeds again. The serving layer reports degraded health while
	// it is non-empty.
	FlushErrors    int64  `json:"flush_errors"`
	LastFlushError string `json:"last_flush_error,omitempty"`
}

// Stats returns a snapshot of the store's counters.
func (p *Persistent) Stats() Stats {
	p.mu.RLock()
	entries := p.entries.live
	walBytes, walRecords := p.walBytes, p.walRecords
	lastFlushErr := p.lastFlushErr
	p.mu.RUnlock()
	return Stats{
		LoadedEntries:  p.loaded,
		Entries:        entries,
		WALBytes:       walBytes,
		WALRecords:     walRecords,
		Appends:        p.appends.Load(),
		DiskHits:       p.diskHits.Load(),
		Compactions:    p.compactions.Load(),
		Retired:        p.retired.Load(),
		LastFlushAgeMS: time.Now().UnixMilli() - p.lastFlushMS.Load(),
		FlushErrors:    p.flushErrors.Load(),
		LastFlushError: lastFlushErr,
	}
}
