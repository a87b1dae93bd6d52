package costdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// snapshotMagic identifies a snapshot stream: format family plus a
// version digit, so a future layout change is a new magic rather than a
// silent misparse. Version 2 added the per-entry backend epoch; version
// 1 files are rejected (recognizably, with a rebuild hint) rather than
// misparsed.
const snapshotMagic = "VITCDBS2"

// snapshotMagicV1 is the pre-epoch snapshot format, recognized only to
// produce a clearer rejection than "bad magic".
const snapshotMagicV1 = "VITCDBS1"

// WriteSnapshot streams entries to w in the versioned, checksummed
// snapshot format: magic, entry count, the entries, and a trailing IEEE
// CRC-32 over everything before it. Entries are written in the exact
// order given; use sortEntries (as ExportTo does) for the canonical
// deterministic byte stream — identical contents always produce
// identical bytes, which the golden round-trip tests rely on.
func WriteSnapshot(w io.Writer, entries []Entry) error {
	return writeSnapshot(w, len(entries), func(emit func(Entry) error) error {
		for _, e := range entries {
			if err := emit(e); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeSnapshot is WriteSnapshot over the count entries each emits, in
// emission order, through one write buffer: compaction streams a store's
// contents straight to the file without copying them out first.
func writeSnapshot(w io.Writer, count int, each func(emit func(Entry) error) error) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	h := crc32.NewIEEE()
	mw := io.MultiWriter(bw, h)
	if _, err := io.WriteString(mw, snapshotMagic); err != nil {
		return fmt.Errorf("costdb: writing snapshot header: %w", err)
	}
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], uint64(count))
	if _, err := mw.Write(scratch[:]); err != nil {
		return fmt.Errorf("costdb: writing snapshot header: %w", err)
	}
	var buf []byte
	written := 0
	if err := each(func(e Entry) error {
		var err error
		if buf, err = appendEntry(buf[:0], e); err != nil {
			return err
		}
		if _, err := mw.Write(buf); err != nil {
			return fmt.Errorf("costdb: writing snapshot entry: %w", err)
		}
		written++
		return nil
	}); err != nil {
		return err
	}
	if written != count {
		return fmt.Errorf("costdb: snapshot holds %d entries, header says %d", written, count)
	}
	binary.LittleEndian.PutUint32(scratch[:4], h.Sum32())
	if _, err := bw.Write(scratch[:4]); err != nil {
		return fmt.Errorf("costdb: writing snapshot checksum: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("costdb: writing snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot parses a snapshot stream, calling fn once per entry in
// stored order, and returns the number of entries read. The trailing
// checksum is verified against every preceding byte; a mismatch — or a
// truncated stream, or trailing garbage — is an error, because a
// snapshot is an all-or-nothing artifact: unlike the WAL there is no
// meaningful "valid prefix" to salvage. fn errors abort the read.
//
// Note fn runs while the stream may still turn out corrupt; callers that
// must not observe entries of a bad snapshot (Open does this) should
// collect into a scratch map and commit only on nil error.
func ReadSnapshot(r io.Reader, fn func(Entry) error) (int, error) {
	h := crc32.NewIEEE()
	br := bufio.NewReader(r)
	tr := io.TeeReader(br, h)

	head := make([]byte, len(snapshotMagic)+8)
	if _, err := io.ReadFull(tr, head); err != nil {
		return 0, fmt.Errorf("costdb: snapshot header unreadable (file truncated or not a snapshot): %w", err)
	}
	if got := string(head[:len(snapshotMagic)]); got != snapshotMagic {
		if got == snapshotMagicV1 {
			return 0, fmt.Errorf("costdb: snapshot is the pre-epoch v1 format (%q): delete the store directory and let it rebuild", got)
		}
		return 0, fmt.Errorf("costdb: bad snapshot magic %q (want %q): not a costdb snapshot or an incompatible version", got, snapshotMagic)
	}
	count := binary.LittleEndian.Uint64(head[len(snapshotMagic):])

	var buf []byte
	read := 0
	for i := uint64(0); i < count; i++ {
		e, err := readEntryFrom(tr, &buf)
		if err != nil {
			return read, fmt.Errorf("costdb: snapshot entry %d of %d: %w", i, count, err)
		}
		if err := fn(e); err != nil {
			return read, err
		}
		read++
	}
	want := h.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return read, fmt.Errorf("costdb: snapshot checksum missing (file truncated): %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return read, fmt.Errorf("costdb: snapshot checksum mismatch (stored %08x, computed %08x): file is corrupt", got, want)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return read, fmt.Errorf("costdb: trailing data after snapshot checksum")
	}
	return read, nil
}

// readEntryFrom decodes one entry from a stream, reusing *buf as
// scratch. It mirrors decodeEntry but reads incrementally so snapshots
// stream without buffering the whole file.
func readEntryFrom(r io.Reader, buf *[]byte) (Entry, error) {
	var fixed [8]byte
	if _, err := io.ReadFull(r, fixed[:2]); err != nil {
		return Entry{}, fmt.Errorf("truncated entry: %w", err)
	}
	nb := int(binary.LittleEndian.Uint16(fixed[:2]))
	if nb == 0 || nb > maxBackendLen {
		return Entry{}, fmt.Errorf("backend name length %d outside 1..%d", nb, maxBackendLen)
	}
	// backend + sig + epoch + nvals in one read.
	need := nb + 8 + 8 + 2
	if cap(*buf) < need {
		*buf = make([]byte, need)
	}
	b := (*buf)[:need]
	if _, err := io.ReadFull(r, b); err != nil {
		return Entry{}, fmt.Errorf("truncated entry: %w", err)
	}
	backend := string(b[:nb])
	sig := binary.LittleEndian.Uint64(b[nb:])
	epoch := binary.LittleEndian.Uint64(b[nb+8:])
	nv := int(binary.LittleEndian.Uint16(b[nb+16:]))
	if nv == 0 || nv > maxVals {
		return Entry{}, fmt.Errorf("cost vector length %d outside 1..%d", nv, maxVals)
	}
	vals := make([]float64, nv)
	for i := range vals {
		if _, err := io.ReadFull(r, fixed[:]); err != nil {
			return Entry{}, fmt.Errorf("truncated entry: %w", err)
		}
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(fixed[:]))
	}
	return Entry{Backend: backend, Epoch: epoch, Sig: sig, Vals: vals}, nil
}

// SortEntries orders entries canonically: by backend name, then epoch,
// then signature — the deterministic layout every snapshot writer in
// this package uses. Callers assembling their own WriteSnapshot streams
// (the serving layer's export of a plain in-memory store) sort with it
// so identical contents always export identical bytes.
func SortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Backend != entries[j].Backend {
			return entries[i].Backend < entries[j].Backend
		}
		if entries[i].Epoch != entries[j].Epoch {
			return entries[i].Epoch < entries[j].Epoch
		}
		return entries[i].Sig < entries[j].Sig
	})
}

// writeSnapshotFile writes the count entries each emits to path atomically: a temp file in
// the same directory, fsync, rename, then fsync of the directory so the
// rename itself is durable — a crash mid-write leaves the previous
// snapshot untouched, and a crash after return cannot resurrect it.
// (Compaction truncates the WAL only after this returns; without the
// directory sync, power loss could persist the truncation but not the
// rename, silently dropping everything since the previous compaction.)
func writeSnapshotFile(path string, count int, each func(emit func(Entry) error) error) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("costdb: creating snapshot: %w", err)
	}
	if err := writeSnapshot(f, count, each); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	size, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("costdb: sizing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("costdb: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("costdb: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("costdb: publishing snapshot: %w", err)
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return 0, fmt.Errorf("costdb: syncing snapshot directory: %w", err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return 0, fmt.Errorf("costdb: syncing snapshot directory: %w", err)
	}
	return size, nil
}
