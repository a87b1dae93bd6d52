package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"vitdyn/internal/obs"
)

// tracedRun is the per-layer run. It boots twice: an untraced reference
// phase (the generator numbers and the untraced p50 come from it), then
// a traced phase whose daemons keep every request in /debug/requestz
// and whose client sends its own X-Request-Id on each request. The
// daemon's spans are joined to the client's by that ID, then the
// in-process ladder times each layer's public functions on the same
// seeded inputs. Each phase runs half the run's duration.
func tracedRun(e *env, w *workload, dur time.Duration, traceDir string) (result, string, error) {
	half := dur / 2
	f, _, err := boot(e, w, "reference", 0)
	if err != nil {
		return result{}, "", err
	}
	ref, err := measure(e, w, f, half, false, "")
	stopFleet(f.ds)
	if err != nil {
		return result{}, "", err
	}

	f, _, err = boot(e, w, "traced", w.requestzCap)
	if err != nil {
		return result{}, "", err
	}
	idPrefix := fmt.Sprintf("vb%d", e.in.Seed)
	tr, err := measure(e, w, f, half, true, idPrefix)
	var snaps []obs.RequestzSnapshot
	for _, d := range f.ds {
		if err != nil {
			break
		}
		var snap obs.RequestzSnapshot
		snap, err = d.requestz()
		snaps = append(snaps, snap)
	}
	stopFleet(f.ds)
	if err != nil {
		return result{}, "", err
	}

	j := join(tr.samples, snaps, idPrefix)
	metrics := layerMetrics(ref, tr, j)
	lad, err := runLadder(e, w, f.ds[0].store)
	if err != nil {
		return result{}, "", fmt.Errorf("ladder: %w", err)
	}
	for k, v := range lad {
		metrics[k] = v
	}
	path, err := writeTrace(traceDir, w.name, e.in.Seed, j)
	if err != nil {
		return result{}, "", err
	}

	attempted, failed, correct, firstErr := tally(ref.phase)
	a2, f2, c2, e2 := tally(tr.phase)
	attempted, failed, correct = attempted+a2, failed+f2, correct && c2
	if firstErr == nil {
		firstErr = e2
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  reference phase: %d requests, traced phase: %d requests (%d joined to daemon spans, %d unjoined)\n",
		len(ref.samples), len(tr.samples), len(j.requests), j.unjoined)
	if firstErr != nil {
		fmt.Fprintf(&b, "  first failure: %v\n", firstErr)
	}
	b.WriteString(j.shareTable())
	fmt.Fprintf(&b, "  spans written to %s\n", path)
	writeMetrics(&b, metrics)
	return result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics}, b.String(), nil
}

// span is one named wall-clock interval.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// joinedRequest is one traced request seen from both sides: the
// client's span, the daemon handler's span, and the handler's stage
// spans, all on the wall clock.
type joinedRequest struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`
	DueNS   int64  `json:"due_ns"`
	Client  span   `json:"client"`
	Handler span   `json:"handler"`
	Stages  []span `json:"stages,omitempty"`
}

// joined is a traced phase's join result.
type joined struct {
	requests []joinedRequest
	unjoined int
	// slotWaitNS and slotWaits cover every request the daemons recorded
	// (set-up included) that waited for a sweep slot.
	slotWaitNS int64
	slotWaits  int
	buildJoins int
	status5xx  int
}

// join matches the traced phase's client samples to the daemons'
// /debug/requestz records by request ID. Stage spans are offsets from
// the daemon's trace start, which begins as the handler starts.
func join(samples []sample, snaps []obs.RequestzSnapshot, idPrefix string) joined {
	var j joined
	recs := map[string]obs.RequestzEntry{}
	for _, snap := range snaps {
		for _, r := range snap.Recent {
			for _, sp := range r.Spans {
				if sp.Name == "sweep_slot_wait" {
					j.slotWaitNS += sp.DurationNS
					j.slotWaits++
				}
			}
			if !strings.HasPrefix(r.ID, idPrefix+"-") {
				continue
			}
			recs[r.ID] = r
			for _, sp := range r.Spans {
				if sp.Name == "build_join" {
					j.buildJoins++
				}
			}
			if r.Status >= 500 {
				j.status5xx++
			}
		}
	}
	for _, s := range samples {
		r, ok := recs[s.id]
		if !ok {
			j.unjoined++
			continue
		}
		c0, c1 := s.clientSpan()
		h0 := r.Start.UnixNano()
		jr := joinedRequest{
			ID: s.id, Kind: s.kind, DueNS: s.due.UnixNano(),
			Client:  span{Name: "client", Start: c0, End: c1},
			Handler: span{Name: "handler", Start: h0, End: h0 + int64(r.DurationMS*float64(time.Millisecond))},
		}
		for _, sp := range r.Spans {
			jr.Stages = append(jr.Stages, span{Name: sp.Name, Start: h0 + sp.StartNS, End: h0 + sp.StartNS + sp.DurationNS})
		}
		j.requests = append(j.requests, jr)
	}
	return j
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// clip returns the part of iv inside within (empty when disjoint).
func clip(iv, within interval) interval {
	iv.start = max(iv.start, within.start)
	iv.end = min(iv.end, within.end)
	if iv.end < iv.start {
		iv.end = iv.start
	}
	return iv
}

// selfTimes splits one joined request's client-measured time into
// layers: the client's own time (connection, HTTP plumbing, the wire),
// the handler's own time, and each stage's time. The handler is clipped
// to the client span and stages to the handler, so with sequential
// stages the layers sum to exactly the client-measured duration.
func (jr joinedRequest) selfTimes() map[string]int64 {
	client := jr.Client.interval()
	h := clip(jr.Handler.interval(), client)
	out := map[string]int64{"client.self": client.dur() - h.dur()}
	stages := make([]interval, 0, len(jr.Stages))
	for _, st := range jr.Stages {
		iv := clip(st.interval(), h)
		stages = append(stages, iv)
		out["stage."+st.Name] += iv.dur()
	}
	out["serve.handler.self"] = h.dur() - covered(h, stages)
	return out
}

// shareTable renders, per request kind, each layer's mean self time and
// its share of the client-measured duration.
func (j joined) shareTable() string {
	type agg struct {
		n      int
		client int64
		layers map[string]int64
	}
	kinds := map[string]*agg{}
	for _, jr := range j.requests {
		a := kinds[jr.Kind]
		if a == nil {
			a = &agg{layers: map[string]int64{}}
			kinds[jr.Kind] = a
		}
		a.n++
		a.client += jr.Client.End - jr.Client.Start
		for k, v := range jr.selfTimes() {
			a.layers[k] += v
		}
	}
	var names []string
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		a := kinds[k]
		fmt.Fprintf(&b, "  layer shares of a %s request (n=%d, mean client time %.4f ms)\n", k, a.n, float64(a.client)/float64(a.n)/1e6)
		var layers []string
		var sum int64
		for l, v := range a.layers {
			layers = append(layers, l)
			sum += v
		}
		sort.Slice(layers, func(x, y int) bool { return a.layers[layers[x]] > a.layers[layers[y]] })
		for _, l := range layers {
			fmt.Fprintf(&b, "    %-26s %12.4f ms %7.2f%%\n", l, float64(a.layers[l])/float64(a.n)/1e6, 100*float64(a.layers[l])/float64(a.client))
		}
		fmt.Fprintf(&b, "    %-26s %12.4f ms %7.2f%%\n", "sum of layers", float64(sum)/float64(a.n)/1e6, 100*float64(sum)/float64(a.client))
	}
	return b.String()
}

// layerMetrics derives the per-layer metrics that come from the daemons
// (/statsz deltas over the traced phase and the joined spans) and from
// the generator (the reference phase).
func layerMetrics(ref, tr measured, j joined) map[string]metric {
	// Counter deltas over the traced phase, summed over daemons.
	var respHits, respMisses, catHits, catMisses, storeHits, storeMisses, evictions, rejected int64
	var generated, prefiltered, costed, admitted, frames int64
	var appends, diskHits, compactions, walBytes int64
	var syncs, failures, received, fullSyncs, stale int64
	for i := range tr.after {
		a, b := tr.after[i], tr.before[i]
		respHits += a.ResponseCache.Hits - b.ResponseCache.Hits
		respMisses += a.ResponseCache.Misses - b.ResponseCache.Misses
		catHits += a.CatalogCache.Hits - b.CatalogCache.Hits
		catMisses += a.CatalogCache.Misses - b.CatalogCache.Misses
		storeHits += a.Store.Hits - b.Store.Hits
		storeMisses += a.Store.Misses - b.Store.Misses
		evictions += a.Store.Evictions - b.Store.Evictions
		rejected += a.Server.SweepsRejected - b.Server.SweepsRejected
		generated += a.Stream.Generated - b.Stream.Generated
		prefiltered += a.Stream.Prefiltered - b.Stream.Prefiltered
		costed += a.Stream.Costed - b.Stream.Costed
		admitted += a.Stream.Admitted - b.Stream.Admitted
		frames += a.Replay.Frames - b.Replay.Frames
		if a.Costdb != nil && b.Costdb != nil {
			appends += a.Costdb.Appends - b.Costdb.Appends
			diskHits += a.Costdb.DiskHits - b.Costdb.DiskHits
			compactions += a.Costdb.Compactions - b.Costdb.Compactions
			walBytes += a.Costdb.WALBytes
		}
		if a.Gossip != nil && b.Gossip != nil {
			syncs += a.Gossip.Syncs - b.Gossip.Syncs
			failures += a.Gossip.Failures - b.Gossip.Failures
			received += a.Gossip.RecordsReceived - b.Gossip.RecordsReceived
			fullSyncs += a.Gossip.FullSyncs - b.Gossip.FullSyncs
			stale += a.Gossip.StaleDropped - b.Gossip.StaleDropped
		}
	}

	// coverage is the share of daemon-recorded handler time that falls
	// inside the matching client span: 1 when the join lines up.
	var handlerSelf, handlerIn, handlerAll int64
	for _, jr := range j.requests {
		handlerSelf += jr.selfTimes()["serve.handler.self"]
		handlerIn += covered(jr.Client.interval(), []interval{jr.Handler.interval()})
		handlerAll += jr.Handler.interval().dur()
	}

	var late []time.Duration
	for _, s := range ref.samples {
		late = append(late, s.lateness())
	}
	lateMS := sortedMS(late)
	refP50 := percentile(latenciesMS(ref.samples), 50)
	trP50 := percentile(latenciesMS(tr.samples), 50)

	count := func(v int64) metric { return metric{float64(v), "count"} }
	return map[string]metric{
		"serve.self_ms":               {ratio(float64(handlerSelf)/1e6, float64(len(j.requests))), "ms"},
		"serve.sweep_slot_wait_ms":    {ratio(float64(j.slotWaitNS)/1e6, float64(j.slotWaits)), "ms"},
		"serve.sweeps_rejected":       count(rejected),
		"serve.status_5xx":            count(int64(j.status5xx)),
		"respcache.hits":              count(respHits),
		"respcache.misses":            count(respMisses),
		"respcache.hit_ratio":         {ratio(float64(respHits), float64(respHits+respMisses)), "ratio"},
		"catcache.hits":               count(catHits),
		"catcache.misses":             count(catMisses),
		"catcache.hit_ratio":          {ratio(float64(catHits), float64(catHits+catMisses)), "ratio"},
		"catcache.build_join":         count(int64(j.buildJoins)),
		"engine.generated":            count(generated),
		"engine.prefiltered":          count(prefiltered),
		"engine.costed":               count(costed),
		"engine.admitted":             count(admitted),
		"engine.prefilter_ratio":      {ratio(float64(prefiltered), float64(generated)), "ratio"},
		"store.hits":                  count(storeHits),
		"store.misses":                count(storeMisses),
		"store.hit_ratio":             {ratio(float64(storeHits), float64(storeHits+storeMisses)), "ratio"},
		"store.evictions":             count(evictions),
		"fleet.store_misses_per_spec": {ratio(float64(storeMisses), float64(tr.specs)), "count"},
		"costdb.appends":              count(appends),
		"costdb.disk_hits":            count(diskHits),
		"costdb.compactions":          count(compactions),
		"costdb.wal_bytes":            {float64(walBytes), "bytes"},
		"gossip.syncs":                count(syncs),
		"gossip.failures":             count(failures),
		"gossip.records_received":     count(received),
		"gossip.full_syncs":           count(fullSyncs),
		"gossip.stale_dropped":        count(stale),
		"rdd.frames":                  count(frames),
		"loadgen.offered_rps":         {float64(len(ref.samples)) / ref.wall.Seconds(), "1/s"},
		"loadgen.late_p50_ms":         {percentile(lateMS, 50), "ms"},
		"loadgen.late_p99_ms":         {percentile(lateMS, 99), "ms"},
		"trace.overhead_ratio":        {ratio(trP50, refP50), "ratio"},
		"trace.coverage_ratio":        {ratio(float64(handlerIn), float64(handlerAll)), "ratio"},
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTrace writes the joined spans of a traced phase as JSON.
func writeTrace(dir, workload string, seed uint64, j joined) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string          `json:"workload"`
		Seed     uint64          `json:"seed"`
		Requests []joinedRequest `json:"requests"`
	}{workload, seed, j.requests})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
