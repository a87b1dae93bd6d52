package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"time"

	"vitdyn/internal/costdb"
	"vitdyn/internal/engine"
	"vitdyn/internal/graph"
	"vitdyn/internal/rdd"
	"vitdyn/internal/serve"
)

// The ladder replays a run's seeded inputs through each layer's public
// functions in this process, timing each call. Unlike the daemon's
// spans — whose generate/prefilter/cost/frontier split is worker-time
// totals scaled to wall time (serve's addBuildSpans) — the ladder builds
// with one worker, so its stage times are the measured split.
const (
	ladderBuilds   = 12
	ladderReplays  = 4
	ladderRepeats  = 5
	handlerHitReqs = 20_000
	flushEntries   = 64
)

// countingBackend wraps a cost backend, counting evaluations, their
// time and the model layers they priced. It keeps the inner backend's
// name, epoch and FLOPs-monotone marker, so builds through it are
// byte-identical to builds through the inner backend.
type countingBackend struct {
	inner  engine.CostBackend
	evals  atomic.Int64
	evalNS atomic.Int64
	layers atomic.Int64
}

func (b *countingBackend) Name() string { return b.inner.Name() }

func (b *countingBackend) Cost(g *graph.Graph) (float64, error) {
	t0 := time.Now()
	c, err := b.inner.Cost(g)
	b.evalNS.Add(int64(time.Since(t0)))
	b.evals.Add(1)
	b.layers.Add(int64(len(g.Layers)))
	return c, err
}

func (b *countingBackend) FLOPsMonotone() bool {
	fm, ok := b.inner.(engine.FLOPsMonotone)
	return ok && fm.FLOPsMonotone()
}

func (b *countingBackend) Epoch() uint64 {
	if ep, ok := b.inner.(engine.Epocher); ok {
		return ep.Epoch()
	}
	return 0
}

// countingCache wraps a cost cache, counting the computes it runs; the
// ladder checks each compute was exactly one backend evaluation.
type countingCache struct {
	inner    engine.CostCache
	computes atomic.Int64
}

func (c *countingCache) GetOrComputeVector(backend string, epoch, sig uint64, compute func() ([]float64, error)) ([]float64, error) {
	return c.inner.GetOrComputeVector(backend, epoch, sig, func() ([]float64, error) {
		c.computes.Add(1)
		return compute()
	})
}

// ladderInputs picks the specs and replays a workload's ladder replays:
// what its daemons built and replayed, from the same seed.
func ladderInputs(e *env, w *workload) ([]Spec, []Replay) {
	var specs []Spec
	var replays []Replay
	if w.name == "warm" {
		specs = e.in.PoolCatalogs()
		for _, p := range e.in.Pool {
			if p.Replay != nil {
				replays = append(replays, *p.Replay)
			}
		}
	} else {
		specs = e.in.Cold
		if w.name == "fleet" {
			specs = e.in.Fleet
		}
		for _, it := range e.in.Mixed(int(mixedRate * 60)) {
			if it.Kind == "replay" {
				replays = append(replays, it.Replay)
			}
		}
	}
	return specs[:min(ladderBuilds, len(specs))], replays[:min(ladderReplays, len(replays))]
}

// runLadder times each layer in process. storeDir is the durable store
// the run's (first) daemon left behind.
func runLadder(e *env, w *workload, storeDir string) (map[string]metric, error) {
	specs, replays := ladderInputs(e, w)
	out := map[string]metric{}
	cache := &countingCache{inner: serve.NewStore(0)}
	var stages engine.StageDurations
	var buildNS int64
	backends := map[string]*countingBackend{}
	for _, s := range specs {
		inner, err := serve.ResolveBackend(s.Backend)
		if err != nil {
			return nil, err
		}
		cb := backends[s.Backend]
		if cb == nil {
			cb = &countingBackend{inner: inner}
			backends[s.Backend] = cb
		}
		model, seq, err := s.Request().Seq()
		if err != nil {
			return nil, err
		}
		timings := new(engine.StageTimings)
		t0 := time.Now()
		if _, _, err := engine.NewWithCache(cb, 1, cache).CatalogFromSeq(e.ctx, model, seq, engine.StreamOptions{Timings: timings}); err != nil {
			return nil, err
		}
		buildNS += int64(time.Since(t0))
		d := timings.Durations()
		stages.Generate += d.Generate
		stages.Prefilter += d.Prefilter
		stages.Cost += d.Cost
		stages.Frontier += d.Frontier
	}
	n := float64(max(1, len(specs)))
	perBuildMS := func(d time.Duration) metric { return metric{float64(d) / 1e6 / n, "ms"} }
	out["engine.generate_ms"] = perBuildMS(stages.Generate)
	out["engine.prefilter_ms"] = perBuildMS(stages.Prefilter)
	out["engine.cost_ms"] = perBuildMS(stages.Cost)
	out["engine.frontier_ms"] = perBuildMS(stages.Frontier)
	out["engine.build_ms"] = perBuildMS(time.Duration(buildNS))
	var evals, evalNS, layers int64
	for _, cb := range backends {
		evals += cb.evals.Load()
		evalNS += cb.evalNS.Load()
		layers += cb.layers.Load()
	}
	if computes := cache.computes.Load(); computes != evals {
		return nil, fmt.Errorf("cost cache ran %d computes for %d backend evaluations", computes, evals)
	}
	out["backend.evals"] = metric{float64(evals), "count"}
	out["backend.eval_us"] = metric{ratio(float64(evalNS)/1e3, float64(evals)), "us"}
	out["backend.layer_evals"] = metric{float64(layers), "count"}

	hitNS, err := ladderHandlerHit(e)
	if err != nil {
		return nil, err
	}
	out["serve.handler_hit_ns"] = metric{hitNS, "ns"}

	replayMS, simNS, err := ladderReplay(e, replays, cache.inner)
	if err != nil {
		return nil, err
	}
	out["rdd.replay_ms"] = metric{replayMS, "ms"}
	out["rdd.simulate_ns_per_frame"] = metric{simNS, "ns"}

	openMS, exportMS, err := ladderCostdbRead(storeDir)
	if err != nil {
		return nil, err
	}
	out["costdb.open_ms"] = metric{openMS, "ms"}
	out["costdb.delta_export_ms"] = metric{exportMS, "ms"}
	flushMS, err := ladderCostdbFlush(filepath.Join(e.work, "ladder-flush"))
	if err != nil {
		return nil, err
	}
	out["costdb.flush_ms"] = metric{flushMS, "ms"}
	return out, nil
}

// discardWriter is a reusable ResponseWriter that drops the body.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// ladderHandlerHit times Server.Handler().ServeHTTP on a cached catalog
// spec: the median over ladderRepeats batches of ns per request.
func ladderHandlerHit(e *env) (float64, error) {
	srv := serve.NewServer(serve.Options{Store: serve.NewStore(0)})
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/catalog?"+e.in.PoolCatalogs()[0].Query(), nil)
	req.Header["X-Request-Id"] = []string{"ladder"}
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // builds and caches
	if w.status != http.StatusOK {
		return 0, fmt.Errorf("handler prewarm: status %d", w.status)
	}
	var batches []float64
	for r := 0; r < ladderRepeats; r++ {
		t0 := time.Now()
		for i := 0; i < handlerHitReqs; i++ {
			h.ServeHTTP(w, req)
		}
		batches = append(batches, float64(time.Since(t0))/handlerHitReqs)
	}
	if srv.RespCache().Stats().Hits < ladderRepeats*handlerHitReqs {
		return 0, fmt.Errorf("handler hits were not response-cache hits")
	}
	return median(batches), nil
}

// ladderReplay builds each replay's trace and simulates it under the
// default policy panel, as the daemon's /v1/replay does. It returns the
// mean milliseconds per replay and the dynamic policy's ns per frame.
func ladderReplay(e *env, replays []Replay, cache engine.CostCache) (float64, float64, error) {
	var replayNS, simNS, frames int64
	for _, rp := range replays {
		backend, err := serve.ResolveBackend(rp.Catalog.Backend)
		if err != nil {
			return 0, 0, err
		}
		model, seq, err := rp.Catalog.Request().Seq()
		if err != nil {
			return 0, 0, err
		}
		cat, _, err := engine.NewWithCache(backend, 0, cache).CatalogFromSeq(e.ctx, model, seq, engine.StreamOptions{})
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		tr, err := rp.Trace.WithBudgetScale(cat.DefaultBudgetScale()).Build()
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		results := []rdd.SimResult{cat.Simulate(tr)}
		simNS += int64(time.Since(t1))
		results = append(results, cat.SimulateStatic(cat.Full(), tr), cat.SimulateStatic(cat.Cheapest(), tr))
		replayNS += int64(time.Since(t0))
		frames += int64(len(tr))
		for _, res := range results {
			if res.Frames != rp.Trace.Frames {
				return 0, 0, fmt.Errorf("replay simulated %d frames, want %d", res.Frames, rp.Trace.Frames)
			}
		}
	}
	return ratio(float64(replayNS)/1e6, float64(len(replays))), ratio(float64(simNS), float64(frames)), nil
}

// ladderCostdbRead times Open over a store directory and a full delta
// export from it: medians over ladderRepeats.
func ladderCostdbRead(dir string) (openMS, exportMS float64, err error) {
	var opens, exports []float64
	for r := 0; r < ladderRepeats; r++ {
		t0 := time.Now()
		db, err := costdb.Open(dir, serve.NewStore(0), costdb.Options{StaleEpoch: engine.StaleEpoch})
		if err != nil {
			return 0, 0, err
		}
		opens = append(opens, float64(time.Since(t0))/1e6)
		t1 := time.Now()
		_, _, err = db.ExportDeltaTo(io.Discard, costdb.Cursor{})
		exports = append(exports, float64(time.Since(t1))/1e6)
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return median(opens), median(exports), nil
}

// ladderCostdbFlush times Flush (a WAL fsync) after flushEntries
// write-through appends: the median over ladderRepeats.
func ladderCostdbFlush(dir string) (float64, error) {
	db, err := costdb.Open(dir, nil, costdb.Options{CompactAge: -1, CompactWALBytes: -1})
	if err != nil {
		return 0, err
	}
	var flushes []float64
	sig := uint64(0)
	for r := 0; r < ladderRepeats; r++ {
		for i := 0; i < flushEntries; i++ {
			sig++
			v := float64(sig)
			if _, err := db.GetOrComputeVector("ladder", 1, sig, func() ([]float64, error) { return []float64{v}, nil }); err != nil {
				db.Close()
				return 0, err
			}
		}
		t0 := time.Now()
		if err := db.Flush(); err != nil {
			db.Close()
			return 0, err
		}
		flushes = append(flushes, float64(time.Since(t0))/1e6)
	}
	return median(flushes), db.Close()
}
