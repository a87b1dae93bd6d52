package serve

// Anti-entropy gossip: every daemon started with -peers pulls cost-store
// deltas from each peer on a jittered schedule, so a (backend,
// signature) shape priced anywhere in the fleet reaches every daemon
// without an operator copying snapshots around. The exchange is the
// costdb delta wire format over the peer's GET /v1/store/delta — bytes
// proportional to what changed, degrading to a full dump in the same
// framing for an empty or stale cursor — and merges land through the
// same epoch rules as every other insert: records whose backend has
// moved to a new cost-model epoch are dropped at merge, never stored.
// Each peer loop is independent, with its own timeout, exponential
// backoff and consecutive-failure quarantine, so one dead peer never
// stalls — or even delays — syncing with the rest.

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vitdyn/internal/costdb"
	"vitdyn/internal/engine"
	"vitdyn/internal/obs"
)

// Gossip defaults, selected by GossipOptions zero values.
const (
	DefaultGossipInterval = 5 * time.Second
	DefaultGossipTimeout  = 2 * time.Second
	// DefaultQuarantineAfter is how many consecutive failures move a
	// peer from backoff to quarantine.
	DefaultQuarantineAfter = 4
)

// GossipOptions configures the anti-entropy sync loop.
type GossipOptions struct {
	// Peers are the fleet members to pull deltas from, as host:port.
	Peers []string
	// Interval is the steady-state cadence per peer, jittered ±50% so a
	// fleet booted together does not synchronize its pulls. <= 0 selects
	// DefaultGossipInterval.
	Interval time.Duration
	// Timeout bounds one delta exchange (connect, transfer, merge-stage
	// read) with a single peer. <= 0 selects DefaultGossipTimeout.
	Timeout time.Duration
	// MaxBackoff caps the exponential per-peer failure backoff. <= 0
	// selects 16×Interval.
	MaxBackoff time.Duration
	// QuarantineAfter is how many consecutive failures quarantine a
	// peer: the loop stops backing off further and probes it only every
	// QuarantineProbe. <= 0 selects DefaultQuarantineAfter.
	QuarantineAfter int
	// QuarantineProbe is the probe cadence for quarantined peers; one
	// successful probe lifts the quarantine. <= 0 selects 8×Interval.
	QuarantineProbe time.Duration
	// MaxBytes bounds one peer response; a stream cut at the limit fails
	// its checksum and the round counts as a failure. <= 0 selects the
	// import body cap.
	MaxBytes int64
	// Logf, when non-nil, receives one line per peer state change
	// (quarantine entered or lifted).
	Logf func(format string, args ...any)
}

func (o GossipOptions) withDefaults() GossipOptions {
	if o.Interval <= 0 {
		o.Interval = DefaultGossipInterval
	}
	if o.Timeout <= 0 {
		o.Timeout = DefaultGossipTimeout
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 16 * o.Interval
	}
	if o.QuarantineAfter <= 0 {
		o.QuarantineAfter = DefaultQuarantineAfter
	}
	if o.QuarantineProbe <= 0 {
		o.QuarantineProbe = 8 * o.Interval
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = maxImportBodyBytes
	}
	return o
}

// gossipPeer is the per-peer sync state: the cursor into the peer's
// insert log, health counters, and the quarantine flag.
type gossipPeer struct {
	addr string

	mu          sync.Mutex
	cursor      costdb.Cursor
	lastSync    time.Time
	lastErr     string
	consecFails int
	quarantined bool

	syncs       atomic.Int64
	failures    atomic.Int64
	received    atomic.Int64 // records merged as new
	staleDrops  atomic.Int64 // records dropped at merge as stale-epoch
	fullSyncs   atomic.Int64 // rounds served as a full dump
	quarantines atomic.Int64 // times the peer entered quarantine
}

// Gossiper runs one pull loop per configured peer against a server's
// cost store. Construct with NewGossiper (which also wires the gossip
// /statsz section and /metrics series into the server), then Start it
// with the daemon's lifetime context and Wait on shutdown.
type Gossiper struct {
	srv    *Server
	opts   GossipOptions
	client *http.Client
	peers  []*gossipPeer
	wg     sync.WaitGroup
}

// NewGossiper builds the gossip loop over the server's cost store and
// attaches it: /statsz grows a gossip section and /metrics the matching
// series. Call Start to begin syncing.
func NewGossiper(s *Server, opts GossipOptions) *Gossiper {
	g := &Gossiper{
		srv:    s,
		opts:   opts.withDefaults(),
		client: &http.Client{},
	}
	for _, addr := range g.opts.Peers {
		g.peers = append(g.peers, &gossipPeer{addr: addr})
	}
	s.gossip = g
	g.initMetrics(s.metrics)
	return g
}

// Start launches one sync loop per peer; the loops exit when ctx is
// cancelled. Use Wait to block until they have.
func (g *Gossiper) Start(ctx context.Context) {
	for _, p := range g.peers {
		g.wg.Add(1)
		go func(p *gossipPeer) {
			defer g.wg.Done()
			g.peerLoop(ctx, p)
		}(p)
	}
}

// Wait blocks until every peer loop has exited (after the Start context
// is cancelled). In-flight exchanges abort with the context, so Wait
// returns promptly on shutdown.
func (g *Gossiper) Wait() { g.wg.Wait() }

// logf forwards to the configured logger, if any.
func (g *Gossiper) logf(format string, args ...any) {
	if g.opts.Logf != nil {
		g.opts.Logf(format, args...)
	}
}

// jittered spreads d over [d/2, 3d/2) so fleet members drift apart
// instead of pulling in lockstep.
func jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + rand.N(d)
}

// peerLoop is one peer's sync schedule: steady-state jittered interval,
// exponential backoff (jittered, capped) while the peer is failing, and
// the slow quarantine probe once it has failed QuarantineAfter times in
// a row.
func (g *Gossiper) peerLoop(ctx context.Context, p *gossipPeer) {
	timer := time.NewTimer(jittered(g.opts.Interval))
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		g.syncPeer(ctx, p)

		p.mu.Lock()
		delay := g.opts.Interval
		switch {
		case p.quarantined:
			delay = g.opts.QuarantineProbe
		case p.consecFails > 0:
			delay = g.opts.Interval << min(p.consecFails, 16)
			if delay > g.opts.MaxBackoff || delay <= 0 {
				delay = g.opts.MaxBackoff
			}
		}
		p.mu.Unlock()
		timer.Reset(jittered(delay))
	}
}

// syncPeer runs one exchange with a peer: fetch the delta since the
// held cursor, merge it through the epoch rules, and update the peer's
// health state. Failures never propagate — they are recorded on the
// peer and shape its schedule.
func (g *Gossiper) syncPeer(ctx context.Context, p *gossipPeer) {
	p.mu.Lock()
	cursor := p.cursor
	p.mu.Unlock()

	reqCtx, cancel := context.WithTimeout(ctx, g.opts.Timeout)
	defer cancel()
	hdr, entries, err := g.fetchDelta(reqCtx, p.addr, cursor)
	if err == nil {
		var added, stale int
		added, stale, err = g.srv.mergeGossipEntries(entries)
		if err == nil {
			p.received.Add(int64(added))
			p.staleDrops.Add(int64(stale))
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		// Context cancellation on shutdown is not peer ill health.
		if ctx.Err() != nil {
			return
		}
		p.failures.Add(1)
		p.consecFails++
		p.lastErr = err.Error()
		if !p.quarantined && p.consecFails >= g.opts.QuarantineAfter {
			p.quarantined = true
			p.quarantines.Add(1)
			g.logf("gossip: peer %s quarantined after %d consecutive failures: %v", p.addr, p.consecFails, err)
		}
		return
	}
	if p.quarantined {
		g.logf("gossip: peer %s recovered, quarantine lifted", p.addr)
	}
	p.quarantined = false
	p.consecFails = 0
	p.lastErr = ""
	p.lastSync = time.Now()
	p.syncs.Add(1)
	if hdr.Full() {
		p.fullSyncs.Add(1)
	}
	// A Gen-0 header means the peer has no insert log (memory-only
	// store): keep the zero cursor and accept full dumps each round.
	if hdr.Gen != 0 {
		p.cursor = hdr.Next()
	}
}

// fetchDelta pulls one delta stream from a peer and stages its entries.
// Any non-200 status, 404 included, is an ordinary sync failure.
func (g *Gossiper) fetchDelta(ctx context.Context, addr string, since costdb.Cursor) (costdb.DeltaHeader, []costdb.Entry, error) {
	var entries []costdb.Entry
	stage := func(e costdb.Entry) error {
		entries = append(entries, e)
		return nil
	}
	body, status, err := g.get(ctx, addr, "/v1/store/delta?since="+since.String())
	if err != nil {
		return costdb.DeltaHeader{}, nil, err
	}
	defer body.Close()
	if status != http.StatusOK {
		return costdb.DeltaHeader{}, nil, fmt.Errorf("peer %s: delta status %d", addr, status)
	}
	hdr, _, err := costdb.ReadDelta(body, stage)
	if err != nil {
		return costdb.DeltaHeader{}, nil, fmt.Errorf("peer %s: %w", addr, err)
	}
	return hdr, entries, nil
}

// get issues one GET against a peer, with the response body capped at
// MaxBytes (an overlong stream truncates and fails its checksum rather
// than exhausting the daemon).
func (g *Gossiper) get(ctx context.Context, addr, path string) (io.ReadCloser, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return nil, 0, err
	}
	// Identify fleet-internal traffic in the peer's access logs: a
	// versioned agent string plus a fresh request ID the peer echoes
	// back, so a cross-daemon exchange correlates end to end.
	setFleetHeaders(req)
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	return struct {
		io.Reader
		io.Closer
	}{io.LimitReader(resp.Body, g.opts.MaxBytes), resp.Body}, resp.StatusCode, nil
}

// mergeGossipEntries folds peer records into the server's cost tier —
// the durable store when configured, else the in-memory store — through
// the engine.BackendEpoch invalidation rules: a record whose backend
// has a registered current epoch different from the record's is stale
// and dropped at merge. First write wins for live records, so gossip is
// idempotent and any sync topology converges.
func (s *Server) mergeGossipEntries(entries []costdb.Entry) (added, stale int, err error) {
	cache := s.cache()
	for _, e := range entries {
		if engine.StaleEpoch(e.Backend, e.Epoch) {
			stale++
			continue
		}
		ran := false
		vals := e.Vals
		if _, gerr := cache.GetOrComputeVector(e.Backend, e.Epoch, e.Sig, func() ([]float64, error) {
			ran = true
			return vals, nil
		}); gerr != nil {
			return added, stale, gerr
		}
		if ran {
			added++
		}
	}
	return added, stale, nil
}

// GossipPeerStats is the /statsz view of one peer's sync state.
type GossipPeerStats struct {
	Addr   string `json:"addr"`
	Cursor string `json:"cursor"`
	// LastSyncAgeMS is the age of the last successful sync; -1 before
	// the first one.
	LastSyncAgeMS       int64  `json:"last_sync_age_ms"`
	Syncs               int64  `json:"syncs"`
	Failures            int64  `json:"failures"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Quarantined         bool   `json:"quarantined"`
	Quarantines         int64  `json:"quarantines"`
	RecordsReceived     int64  `json:"records_received"`
	StaleDropped        int64  `json:"stale_dropped"`
	FullSyncs           int64  `json:"full_syncs"`
	LastError           string `json:"last_error,omitempty"`
}

// GossipStats is the /statsz gossip section: per-peer state plus fleet
// totals.
type GossipStats struct {
	Peers           []GossipPeerStats `json:"peers"`
	Syncs           int64             `json:"syncs"`
	Failures        int64             `json:"failures"`
	RecordsReceived int64             `json:"records_received"`
	StaleDropped    int64             `json:"stale_dropped"`
	FullSyncs       int64             `json:"full_syncs"`
	Quarantined     int               `json:"quarantined"`
}

// Stats snapshots the gossip state across every peer.
func (g *Gossiper) Stats() GossipStats {
	st := GossipStats{Peers: make([]GossipPeerStats, 0, len(g.peers))}
	for _, p := range g.peers {
		ps := p.stats()
		st.Peers = append(st.Peers, ps)
		st.Syncs += ps.Syncs
		st.Failures += ps.Failures
		st.RecordsReceived += ps.RecordsReceived
		st.StaleDropped += ps.StaleDropped
		st.FullSyncs += ps.FullSyncs
		if ps.Quarantined {
			st.Quarantined++
		}
	}
	return st
}

func (p *gossipPeer) stats() GossipPeerStats {
	p.mu.Lock()
	ps := GossipPeerStats{
		Addr:                p.addr,
		Cursor:              p.cursor.String(),
		LastSyncAgeMS:       -1,
		ConsecutiveFailures: p.consecFails,
		Quarantined:         p.quarantined,
		LastError:           p.lastErr,
	}
	if !p.lastSync.IsZero() {
		ps.LastSyncAgeMS = time.Since(p.lastSync).Milliseconds()
	}
	p.mu.Unlock()
	ps.Syncs = p.syncs.Load()
	ps.Failures = p.failures.Load()
	ps.Quarantines = p.quarantines.Load()
	ps.RecordsReceived = p.received.Load()
	ps.StaleDropped = p.staleDrops.Load()
	ps.FullSyncs = p.fullSyncs.Load()
	return ps
}

// initMetrics re-exports the gossip counters on /metrics: fleet totals
// plus per-peer series (label cardinality is bounded by the -peers
// list).
func (g *Gossiper) initMetrics(reg *obs.Registry) {
	reg.GaugeFunc("vitdyn_gossip_peers", "Configured gossip peers.",
		func() float64 { return float64(len(g.peers)) })
	reg.GaugeFunc("vitdyn_gossip_quarantined_peers", "Peers currently quarantined.",
		func() float64 { return float64(g.Stats().Quarantined) })
	total := func(name, help string, v func() int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v()) })
	}
	total("vitdyn_gossip_syncs_total", "Successful gossip exchanges across all peers.",
		func() int64 { return g.Stats().Syncs })
	total("vitdyn_gossip_failures_total", "Failed gossip exchanges across all peers.",
		func() int64 { return g.Stats().Failures })
	total("vitdyn_gossip_records_received_total", "Cost records merged as new from peers.",
		func() int64 { return g.Stats().RecordsReceived })
	total("vitdyn_gossip_stale_dropped_total", "Peer records dropped at merge as stale-epoch.",
		func() int64 { return g.Stats().StaleDropped })
	total("vitdyn_gossip_full_syncs_total", "Gossip rounds served as a full dump instead of a delta.",
		func() int64 { return g.Stats().FullSyncs })
	for _, p := range g.peers {
		p := p
		label := obs.Label{Key: "peer", Value: p.addr}
		reg.CounterFunc("vitdyn_gossip_peer_syncs_total", "Successful gossip exchanges by peer.",
			func() float64 { return float64(p.syncs.Load()) }, label)
		reg.CounterFunc("vitdyn_gossip_peer_failures_total", "Failed gossip exchanges by peer.",
			func() float64 { return float64(p.failures.Load()) }, label)
		reg.CounterFunc("vitdyn_gossip_peer_quarantines_total", "Times the peer entered quarantine.",
			func() float64 { return float64(p.quarantines.Load()) }, label)
		reg.CounterFunc("vitdyn_gossip_peer_records_received_total", "Cost records merged as new from the peer.",
			func() float64 { return float64(p.received.Load()) }, label)
		reg.CounterFunc("vitdyn_gossip_peer_stale_dropped_total", "Peer records dropped at merge as stale-epoch.",
			func() float64 { return float64(p.staleDrops.Load()) }, label)
		reg.CounterFunc("vitdyn_gossip_peer_full_syncs_total", "Rounds served as a full dump by the peer.",
			func() float64 { return float64(p.fullSyncs.Load()) }, label)
		reg.GaugeFunc("vitdyn_gossip_peer_quarantined", "1 while the peer is quarantined.",
			func() float64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				if p.quarantined {
					return 1
				}
				return 0
			}, label)
		reg.GaugeFunc("vitdyn_gossip_peer_consecutive_failures", "Consecutive failed exchanges with the peer.",
			func() float64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				return float64(p.consecFails)
			}, label)
		reg.GaugeFunc("vitdyn_gossip_peer_last_sync_age_seconds", "Seconds since the last successful sync; -1 before the first.",
			func() float64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				if p.lastSync.IsZero() {
					return -1
				}
				return time.Since(p.lastSync).Seconds()
			}, label)
	}
}
