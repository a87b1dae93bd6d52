package serve

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vitdyn/internal/costdb"
	"vitdyn/internal/engine"
)

// peerAddr strips an httptest server URL to the host:port form the
// gossip client takes.
func peerAddr(ts *httptest.Server) string { return strings.TrimPrefix(ts.URL, "http://") }

// seedDB write-throughs n distinct entries into a server's durable tier.
func seedDB(t *testing.T, db *costdb.Persistent, backend string, epoch uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := db.GetOrComputeVector(backend, epoch, uint64(i), func() ([]float64, error) {
			return []float64{float64(i), float64(i) * 2}, nil
		}); err != nil {
			t.Fatalf("seed %s/%d: %v", backend, i, err)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStoreDeltaEndpoint pins the /v1/store/delta wire contract over a
// durable tier: a zero cursor gets a full dump whose Next() cursor then
// yields an empty delta; inserts after that cursor arrive incrementally;
// a malformed cursor is a 400 counted in delta_errors.
func TestStoreDeltaEndpoint(t *testing.T) {
	srv, ts, db := newPersistentServer(t, t.TempDir())
	defer db.Close()
	seedDB(t, db, "deltabk", 5, 3)

	status, body := get(t, ts.URL+"/v1/store/delta")
	if status != http.StatusOK {
		t.Fatalf("delta: %d %s", status, body)
	}
	var entries []costdb.Entry
	hdr, n, err := costdb.ReadDelta(bytes.NewReader(body), func(e costdb.Entry) error {
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		t.Fatalf("reading delta: %v", err)
	}
	if !hdr.Full() || n != 3 || hdr.Gen == 0 {
		t.Fatalf("cold delta: hdr %+v, %d entries", hdr, n)
	}

	// Up to date: empty delta against the returned cursor.
	status, body = get(t, ts.URL+"/v1/store/delta?since="+hdr.Next().String())
	if status != http.StatusOK {
		t.Fatalf("delta since: %d %s", status, body)
	}
	if hdr2, n, err := costdb.ReadDelta(bytes.NewReader(body), func(costdb.Entry) error { return nil }); err != nil || n != 0 || hdr2.Full() {
		t.Fatalf("up-to-date delta: hdr %+v, %d entries, err %v", hdr2, n, err)
	}

	// New inserts arrive incrementally.
	seedDB(t, db, "deltabk2", 6, 2)
	status, body = get(t, ts.URL+"/v1/store/delta?since="+hdr.Next().String())
	if status != http.StatusOK {
		t.Fatalf("incremental delta: %d %s", status, body)
	}
	if _, n, err := costdb.ReadDelta(bytes.NewReader(body), func(costdb.Entry) error { return nil }); err != nil || n != 2 {
		t.Fatalf("incremental delta carried %d entries (err %v), want 2", n, err)
	}

	if status, body = get(t, ts.URL+"/v1/store/delta?since=garbage"); status != http.StatusBadRequest {
		t.Fatalf("bad cursor: %d %s", status, body)
	}
	if d := srv.deltaErrors.Load(); d != 1 {
		t.Errorf("delta_errors = %d, want 1", d)
	}
	if srv.deltas.Load() != 3 || srv.deltaEntriesSent.Load() != 5 {
		t.Errorf("delta counters: %d served / %d entries, want 3 / 5",
			srv.deltas.Load(), srv.deltaEntriesSent.Load())
	}
}

// TestStoreDeltaMemoryOnly pins the fallback for daemons without a
// durable tier: the resident store is served as an uncursored (Gen 0)
// full dump each round.
func TestStoreDeltaMemoryOnly(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	for i := 0; i < 4; i++ {
		i := i
		if _, err := srv.Store().GetOrComputeVector("membk", 9, uint64(i), func() ([]float64, error) {
			return []float64{float64(i)}, nil
		}); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}
	status, body := get(t, ts.URL+"/v1/store/delta?since=123:456")
	if status != http.StatusOK {
		t.Fatalf("delta: %d %s", status, body)
	}
	hdr, n, err := costdb.ReadDelta(bytes.NewReader(body), func(costdb.Entry) error { return nil })
	if err != nil || hdr.Gen != 0 || !hdr.Full() || n != 4 {
		t.Fatalf("memory-only delta: hdr %+v, %d entries, err %v", hdr, n, err)
	}
}

// TestGossipSyncConverges runs a real gossip loop: server B (memory
// only) pulls from server A (durable) and must converge on A's entries,
// advance its cursor, and not re-merge them on later rounds.
func TestGossipSyncConverges(t *testing.T) {
	_, tsA, dbA := newPersistentServer(t, t.TempDir())
	defer dbA.Close()
	seedDB(t, dbA, "gossipbk", 3, 8)

	srvB, _ := newTestServer(t, Options{})
	g := NewGossiper(srvB, GossipOptions{
		Peers:    []string{peerAddr(tsA)},
		Interval: 10 * time.Millisecond,
		Timeout:  2 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	g.Start(ctx)
	defer g.Wait()
	defer cancel() // LIFO: cancel before Wait, or Wait never returns

	waitFor(t, 10*time.Second, "B to converge on A's store", func() bool {
		return srvB.Store().Len() >= 8
	})
	// Let at least one more round run, then check idempotence.
	st := g.Stats()
	firstSyncs := st.Syncs
	waitFor(t, 10*time.Second, "another gossip round", func() bool {
		return g.Stats().Syncs > firstSyncs
	})
	st = g.Stats()
	if st.RecordsReceived != 8 {
		t.Errorf("records received %d, want 8 (repeat rounds must not re-merge)", st.RecordsReceived)
	}
	if st.Failures != 0 || st.Quarantined != 0 {
		t.Errorf("healthy sync recorded failures: %+v", st)
	}
	if len(st.Peers) != 1 || st.Peers[0].Cursor == "0:0" {
		t.Errorf("peer cursor never advanced: %+v", st.Peers)
	}
	if st.Peers[0].LastSyncAgeMS < 0 {
		t.Errorf("last sync age unset: %+v", st.Peers[0])
	}
	if st.FullSyncs == 0 {
		t.Error("the cold-start round should have been a full dump")
	}
}

// TestGossipStaleEpochDroppedAtMerge: a peer record whose backend moved
// to a different cost-model epoch must be dropped at merge, never
// stored.
func TestGossipStaleEpochDroppedAtMerge(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	name := engine.FLOPs().Name()
	current := engine.BackendEpoch(engine.FLOPs())
	entries := []costdb.Entry{
		{Backend: name, Epoch: current + 1, Sig: 901, Vals: []float64{1}},          // stale
		{Backend: name, Epoch: current, Sig: 902, Vals: []float64{2}},              // live
		{Backend: "never-served-backend", Epoch: 77, Sig: 903, Vals: []float64{3}}, // unregistered: kept
	}
	added, stale, err := srv.mergeGossipEntries(entries)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if added != 2 || stale != 1 {
		t.Fatalf("merge added %d / dropped %d, want 2 / 1", added, stale)
	}
	if srv.Store().Contains(name, current+1, 901) {
		t.Error("stale-epoch record entered the store")
	}
	if !srv.Store().Contains(name, current, 902) || !srv.Store().Contains("never-served-backend", 77, 903) {
		t.Error("live records missing from the store after merge")
	}
}

// TestGossipQuarantineAndRecovery: a dead peer must be quarantined
// after consecutive failures without stalling the loop, and a probe
// against the recovered peer must lift the quarantine.
func TestGossipQuarantineAndRecovery(t *testing.T) {
	// Reserve an address, then kill the listener: connections are
	// refused until the "peer" comes back on the same port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	srv, _ := newTestServer(t, Options{})
	g := NewGossiper(srv, GossipOptions{
		Peers:           []string{addr},
		Interval:        5 * time.Millisecond,
		Timeout:         time.Second,
		MaxBackoff:      20 * time.Millisecond,
		QuarantineAfter: 3,
		QuarantineProbe: 20 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	g.Start(ctx)
	defer g.Wait()
	defer cancel() // LIFO: cancel before Wait, or Wait never returns

	waitFor(t, 15*time.Second, "dead peer to be quarantined", func() bool {
		st := g.Stats()
		return st.Quarantined == 1 && st.Peers[0].Failures >= 3
	})
	if st := g.Stats(); st.Peers[0].LastError == "" || st.Peers[0].Quarantines != 1 {
		t.Errorf("quarantined peer state: %+v", st.Peers[0])
	}

	// Bring the peer back on the same address; the quarantine probe must
	// find it and lift the quarantine.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s (port taken): %v", addr, err)
	}
	srvA := NewServer(Options{})
	peer := &http.Server{Handler: srvA.Handler()}
	go peer.Serve(ln2)
	defer peer.Close()

	waitFor(t, 15*time.Second, "quarantine to lift after recovery", func() bool {
		st := g.Stats()
		return st.Quarantined == 0 && st.Syncs > 0
	})
	if st := g.Stats(); st.Peers[0].ConsecutiveFailures != 0 || st.Peers[0].LastError != "" {
		t.Errorf("recovered peer state: %+v", st.Peers[0])
	}
}
