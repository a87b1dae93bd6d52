package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"vitdyn/internal/costdb"
	"vitdyn/internal/engine"
	"vitdyn/internal/serve"
)

// clients is the generator's concurrency: at most this many requests
// are in flight, one per client connection (nproc on the reference VM).
const clients = 2

// mixedRate is the mixed workload's fixed arrival rate, about 5% of the
// warm workload's closed-loop capacity on the reference VM.
const mixedRate = 500.0

// gossipInterval is the fleet's anti-entropy pull cadence, far shorter
// than the wall time fleetLag spans.
const gossipInterval = 100 * time.Millisecond

// sloMS is each request kind's latency limit, in milliseconds, used by
// slo_ratio. hit/* kinds are served from a cache tier; the rest build.
var sloMS = map[string]float64{
	"hit/catalog": 10,
	"hit/replay":  10,
	"hit/batch":   10,
	"hit/probe":   10,
	"hit/store":   250,
	"replay":      250,
	"build":       1000,
}

// env is one benchmark run's context: its inputs, the daemon binary and
// a private working directory.
type env struct {
	ctx  context.Context
	bin  string
	work string
	in   *Inputs
}

// fleet is one booted set of daemons and what its set-up recorded.
type fleet struct {
	ds      []*daemon
	prewarm [][]byte // warm pool response bodies, by pool index
}

func (f *fleet) addrs() []string {
	out := make([]string, len(f.ds))
	for i, d := range f.ds {
		out[i] = d.addr
	}
	return out
}

// phase is one timed load phase's raw outcome.
type phase struct {
	samples []sample // requests sent in the timed window
	extra   []sample // checked requests sent after it (cold's hit probe)
	checks  []error  // failed checks that are not a single request
	wall    time.Duration
	specs   int      // distinct catalog specs the window sent
	bodies  [][]byte // cold: each built spec's reply, by cold-stream index
}

// workload is one named traffic mix.
type workload struct {
	name    string
	prepare func(e *env) error                                                      // untimed, once per run
	boot    func(e *env, dir string, requestzCap int) (*fleet, error)               // timed set-up
	load    func(e *env, f *fleet, dur time.Duration, traced bool, id string) phase // timed load
	verify  func(e *env, f *fleet, p *phase)                                        // untimed checks after the load
	// requestzCap is the traced run's /debug/requestz depth, enough to
	// hold every request of a traced phase.
	requestzCap int
}

var workloads = map[string]*workload{
	"warm":  {name: "warm", prepare: fillPoolStore, boot: bootPool, load: loadWarm, requestzCap: 400_000},
	"cold":  {name: "cold", boot: bootEmpty(1), load: loadCold, verify: verifyCold, requestzCap: 10_000},
	"mixed": {name: "mixed", prepare: fillPoolStore, boot: bootPool, load: loadMixed, requestzCap: 20_000},
	"fleet": {name: "fleet", boot: bootEmpty(fleetDaemons), load: loadFleet, requestzCap: 10_000},
}

// poolStore is where prepare leaves the filled cost store the pool
// workloads boot from.
func poolStore(e *env) string { return filepath.Join(e.work, "pool-store") }

// fillPoolStore prices every warm pool spec into a durable cost store,
// in this process and before any timing, so the daemon warm-boots with
// every cost the pool needs.
func fillPoolStore(e *env) error {
	db, err := costdb.Open(poolStore(e), serve.NewStore(0), costdb.Options{StaleEpoch: engine.StaleEpoch})
	if err != nil {
		return err
	}
	for _, entry := range e.in.Pool {
		for _, s := range entry.Specs() {
			backend, err := serve.ResolveBackend(s.Backend)
			if err != nil {
				db.Close()
				return err
			}
			model, seq, err := s.Request().Seq()
			if err != nil {
				db.Close()
				return err
			}
			if _, _, err := engine.NewWithCache(backend, 0, db).CatalogFromSeq(e.ctx, model, seq, engine.StreamOptions{}); err != nil {
				db.Close()
				return err
			}
		}
	}
	return db.Close()
}

// copyStore copies a cost-store directory's files.
func copyStore(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	for _, name := range []string{costdb.SnapshotFile, costdb.WALFile} {
		src, err := os.Open(filepath.Join(from, name))
		if os.IsNotExist(err) {
			continue
		} else if err != nil {
			return err
		}
		dst, err := os.Create(filepath.Join(to, name))
		if err != nil {
			src.Close()
			return err
		}
		_, err = io.Copy(dst, src)
		src.Close()
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// poolCall is the request for one warm pool entry.
func poolCall(entry PoolEntry) call {
	switch {
	case entry.Replay != nil:
		return call{kind: "hit/replay", method: "POST", target: "/v1/replay", body: entry.Replay.Body(), check: checkReplay(entry.Replay.Trace.Frames)}
	case entry.Batch != nil:
		return call{kind: "hit/batch", method: "POST", target: "/v1/batch", body: batchBody(entry.Batch), check: checkBatch(len(entry.Batch))}
	}
	return call{kind: "hit/catalog", method: "GET", target: "/v1/catalog?" + entry.Catalog.Query(), check: checkCatalog}
}

// bootPool starts one daemon on a copy of the filled pool store and
// prewarms every pool entry once, keeping each body as the reference
// later hits must match byte for byte.
func bootPool(e *env, dir string, requestzCap int) (*fleet, error) {
	store := filepath.Join(dir, "store")
	if err := copyStore(poolStore(e), store); err != nil {
		return nil, err
	}
	ds, err := startFleet(e.ctx, daemonConfig{bin: e.bin, dir: dir, stores: []string{store}, requestzCap: requestzCap})
	if err != nil {
		return nil, err
	}
	f := &fleet{ds: ds, prewarm: make([][]byte, len(e.in.Pool))}
	calls := make([]call, len(e.in.Pool))
	for i, entry := range e.in.Pool {
		c := poolCall(entry)
		check := c.check
		c.check = func(body []byte) error {
			if err := check(body); err != nil {
				return err
			}
			f.prewarm[i] = append([]byte(nil), body...)
			return nil
		}
		calls[i] = c
	}
	samples, _ := closedLoop(e.ctx, f.addrs(), clients, time.Hour, func(i int) (call, bool) {
		if i >= len(calls) {
			return call{}, false
		}
		return calls[i], true
	}, false, "")
	for _, s := range samples {
		if !s.ok() {
			stopFleet(ds)
			return nil, fmt.Errorf("prewarm: %w", s.err)
		}
	}
	return f, nil
}

// bootEmpty starts n daemons (a full mesh when n > 1), each on its own
// empty cost store.
func bootEmpty(n int) func(e *env, dir string, requestzCap int) (*fleet, error) {
	return func(e *env, dir string, requestzCap int) (*fleet, error) {
		stores := make([]string, n)
		for i := range stores {
			stores[i] = filepath.Join(dir, fmt.Sprintf("store-%d", i))
		}
		ds, err := startFleet(e.ctx, daemonConfig{bin: e.bin, dir: dir, stores: stores, gossip: gossipInterval, requestzCap: requestzCap})
		if err != nil {
			return nil, err
		}
		return &fleet{ds: ds}, nil
	}
}

// loadWarm cycles round-robin through the prewarmed pool with a closed
// loop; every reply must equal its prewarm body.
func loadWarm(e *env, f *fleet, dur time.Duration, traced bool, id string) phase {
	calls := make([]call, len(e.in.Pool))
	for i, entry := range e.in.Pool {
		c := poolCall(entry)
		c.check = equalTo(f.prewarm[i])
		calls[i] = c
	}
	samples, wall := closedLoop(e.ctx, f.addrs(), clients, dur, func(i int) (call, bool) {
		return calls[i%len(calls)], true
	}, traced, id)
	specs := 0
	for _, entry := range e.in.Pool {
		specs += len(entry.Specs())
	}
	return phase{samples: samples, wall: wall, specs: specs}
}

// coldCall requests one never-seen spec and keeps its body.
func coldCall(s Spec, kind string, daemon int, keep func(body []byte)) call {
	return call{kind: kind, method: "GET", target: "/v1/catalog?" + s.Query(), daemon: daemon, check: func(body []byte) error {
		if err := checkCatalog(body); err != nil {
			return err
		}
		keep(body)
		return nil
	}}
}

// Cold's post-timing checks: the last hitProbeSpecs built specs are
// re-read hitProbePasses times (response-cache hits that must equal the
// first reply), and inProcessChecks seeded specs are rebuilt in this
// process and compared byte for byte. hitProbeSpecs stays well inside
// the response cache's per-shard capacity (16 shards of 16 entries), so
// every re-read is a hit.
const (
	hitProbeSpecs   = 64
	hitProbePasses  = 128
	inProcessChecks = 8
)

// loadCold sends each client a never-seen spec back to back.
func loadCold(e *env, f *fleet, dur time.Duration, traced bool, id string) phase {
	bodies := make([][]byte, len(e.in.Cold))
	samples, wall := closedLoop(e.ctx, f.addrs(), clients, dur, func(i int) (call, bool) {
		if i >= len(e.in.Cold) {
			return call{}, false
		}
		return coldCall(e.in.Cold[i], "build", 0, func(b []byte) { bodies[i] = append([]byte(nil), b...) }), true
	}, traced, id)
	return phase{samples: samples, wall: wall, specs: len(samples), bodies: bodies}
}

// verifyCold re-reads the last built specs as response-cache hits and
// rebuilds a seeded sample in this process; every body must match the
// one the timed window received.
func verifyCold(e *env, f *fleet, p *phase) {
	var built []int
	for i, b := range p.bodies {
		if b != nil {
			built = append(built, i)
		}
	}
	if len(built) == 0 {
		p.checks = append(p.checks, fmt.Errorf("no cold spec was built"))
		return
	}
	probe := built[max(0, len(built)-hitProbeSpecs):]
	p.extra, _ = closedLoop(e.ctx, f.addrs(), 1, time.Hour, func(i int) (call, bool) {
		if i >= hitProbePasses*len(probe) {
			return call{}, false
		}
		k := probe[i%len(probe)]
		return call{kind: "hit/probe", method: "GET", target: "/v1/catalog?" + e.in.Cold[k].Query(), check: equalTo(p.bodies[k])}, true
	}, false, "")
	for _, k := range shuffledSample(rng(e.in.Seed, streamCheck), built, inProcessChecks) {
		want, err := inProcessCatalog(e.ctx, e.in.Cold[k])
		if err == nil {
			err = equalTo(want)(p.bodies[k])
		}
		if err != nil {
			p.checks = append(p.checks, fmt.Errorf("in-process rebuild of %s: %w", e.in.Cold[k].Query(), err))
		}
	}
}

// mixedLane gives cache hits one client and replays and builds the
// other, so hits wait on the daemon — the contention mixed measures —
// and never on a connection a slow request holds.
func mixedLane(kind string) int {
	if strings.HasPrefix(kind, "hit/") {
		return 0
	}
	return 1
}

// loadMixed offers the mixed schedule at mixedRate in an open loop.
func loadMixed(e *env, f *fleet, dur time.Duration, traced bool, id string) phase {
	items := e.in.Mixed(int(mixedRate*dur.Seconds()) + 1)
	calls := make([]call, len(items))
	specs := map[string]bool{}
	for i, it := range items {
		switch it.Kind {
		case "hit":
			c := poolCall(e.in.Pool[it.Pool])
			c.check = equalTo(f.prewarm[it.Pool])
			calls[i] = c
			for _, s := range e.in.Pool[it.Pool].Specs() {
				specs[s.Query()] = true
			}
		case "replay":
			calls[i] = call{kind: "replay", method: "POST", target: "/v1/replay", body: it.Replay.Body(), check: checkReplay(it.Replay.Trace.Frames)}
			specs[it.Replay.Catalog.Query()] = true
		case "build":
			calls[i] = coldCall(it.Build, "build", 0, func([]byte) {})
			specs[it.Build.Query()] = true
		}
	}
	samples, wall := openLoop(e.ctx, f.addrs(), clients, mixedLane, dur, mixedRate, calls, traced, id)
	return phase{samples: samples, wall: wall, specs: len(specs)}
}

// loadFleet sends each spec to one daemon, then — fleetLag specs later
// each — to the other two, which must answer byte-identically from
// costs gossiped to their stores.
func loadFleet(e *env, f *fleet, dur time.Duration, traced bool, id string) phase {
	items := FleetOrder(len(e.in.Fleet))
	var mu sync.Mutex
	first := map[int][]byte{}
	seen := map[int]bool{}
	samples, wall := closedLoop(e.ctx, f.addrs(), clients, dur, func(i int) (call, bool) {
		if i >= len(items) {
			return call{}, false
		}
		it := items[i]
		mu.Lock()
		seen[it.Spec] = true
		mu.Unlock()
		s := e.in.Fleet[it.Spec]
		if it.Touch == 0 {
			return coldCall(s, "build", it.Daemon, func(b []byte) {
				mu.Lock()
				first[it.Spec] = append([]byte(nil), b...)
				mu.Unlock()
			}), true
		}
		return call{kind: "hit/store", method: "GET", target: "/v1/catalog?" + s.Query(), daemon: it.Daemon, check: func(body []byte) error {
			mu.Lock()
			want, ok := first[it.Spec]
			mu.Unlock()
			if !ok {
				return fmt.Errorf("touch %d of %s before its first touch answered", it.Touch, s.Query())
			}
			return equalTo(want)(body)
		}}, true
	}, traced, id)
	return phase{samples: samples, wall: wall, specs: len(seen)}
}

// shuffledSample picks up to n distinct elements of xs with r.
func shuffledSample(r *rand.Rand, xs []int, n int) []int {
	idx := append([]int(nil), xs...)
	r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx[:min(n, len(idx))]
}
