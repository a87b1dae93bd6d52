package main

import (
	"encoding/json"
	"math/rand/v2"
	"strconv"

	"vitdyn/internal/rdd"
	"vitdyn/internal/serve"
)

// Spec is one catalog spec, the unit every workload draws from.
type Spec struct {
	Family  string
	Dataset string
	Variant string
	Step    int
	Backend string
}

// Request is the spec as the serving layer's request type.
func (s Spec) Request() serve.CatalogRequest {
	return serve.CatalogRequest{Family: s.Family, Dataset: s.Dataset, Variant: s.Variant, Step: s.Step, Backend: s.Backend}
}

// Query renders the spec as /v1/catalog query parameters in a fixed
// order, so a spec always maps to the same response-cache key.
func (s Spec) Query() string {
	q := "family=" + s.Family
	if s.Dataset != "" {
		q += "&dataset=" + s.Dataset
	}
	if s.Variant != "" {
		q += "&variant=" + s.Variant
	}
	if s.Step > 0 {
		q += "&step=" + strconv.Itoa(s.Step)
	}
	return q + "&backend=" + s.Backend
}

// Step ranges of the pruning sweeps in the spec universe. They keep a
// cold build to a few dozen candidates (24-40 for Swin, 72-96 for
// SegFormer), so a run of a few seconds holds enough builds for a p99,
// and every step in a range yields its own candidate set.
const (
	segStepLo, segStepHi   = 768, 1023
	swinStepLo, swinStepHi = 256, 511
)

// universe enumerates every catalog spec the workloads draw from:
// family × dataset/variant × step × every /v1/backends spec. Families
// without a step sweep appear once per dataset and backend.
func universe() []Spec {
	var out []Spec
	for _, b := range serve.Backends() {
		for _, ds := range []string{"ADE", "City"} {
			for step := segStepLo; step <= segStepHi; step++ {
				out = append(out, Spec{Family: "segformer", Dataset: ds, Step: step, Backend: b.Spec})
			}
			out = append(out, Spec{Family: "segformer-retrained", Dataset: ds, Backend: b.Spec})
		}
		for _, v := range []string{"Tiny", "Small", "Base"} {
			for step := swinStepLo; step <= swinStepHi; step++ {
				out = append(out, Spec{Family: "swin", Variant: v, Step: step, Backend: b.Spec})
			}
		}
		out = append(out, Spec{Family: "swin-retrained", Backend: b.Spec}, Spec{Family: "ofa", Backend: b.Spec})
	}
	return out
}

// Seeded random streams. Each purpose draws from its own stream so that
// changing how one workload consumes randomness leaves the others'
// inputs alone.
const (
	streamUniverse uint64 = iota + 1
	streamPool
	streamMixed
	streamCheck
)

func rng(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// Replay is one /v1/replay request: a catalog spec and one trace,
// replayed under the default policy panel (dynamic, static-full,
// static-cheapest).
type Replay struct {
	Catalog Spec
	Trace   rdd.TraceSpec
}

// Body is the POST body.
func (r Replay) Body() []byte {
	tr := r.Trace
	b, err := json.Marshal(serve.ReplayRequest{Catalog: r.Catalog.Request(), Trace: &tr})
	if err != nil {
		panic(err) // a fixed struct of strings and numbers always encodes
	}
	return b
}

// burstyTrace is a seeded bursty trace of frames frames; lo/hi stay 0 so
// the daemon scales budgets to the catalog.
func burstyTrace(r *rand.Rand, frames int) rdd.TraceSpec {
	return rdd.TraceSpec{Kind: "bursty", Frames: frames, BusyFrac: 0.2 + 0.4*r.Float64(), Seed: r.Uint64()}
}

// batchBody is a /v1/batch POST body over specs.
func batchBody(specs []Spec) []byte {
	req := serve.BatchRequest{}
	for _, s := range specs {
		req.Requests = append(req.Requests, s.Request())
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

// PoolEntry is one prewarmed request of the warm pool. Exactly one of
// Catalog, Replay and Batch is set.
type PoolEntry struct {
	Catalog *Spec
	Replay  *Replay
	Batch   []Spec
}

// Specs lists the catalog specs the entry builds.
func (e PoolEntry) Specs() []Spec {
	switch {
	case e.Replay != nil:
		return []Spec{e.Replay.Catalog}
	case e.Batch != nil:
		return e.Batch
	}
	return []Spec{*e.Catalog}
}

const (
	poolSize  = 64
	batchSize = 3
)

// Inputs is everything one seed generates: the warm pool, and the
// stream of never-repeated specs behind cold builds. The two are
// disjoint. Fleet is the cold stream's Swin specs: the fleet workload
// measures gossip and store hits, not build cost, and the cheaper
// family gives a run enough second and third touches for a p99.
type Inputs struct {
	Seed  uint64
	Pool  []PoolEntry
	Cold  []Spec
	Fleet []Spec
}

// NewInputs draws one seed's inputs. The universe is shuffled once; the
// pool takes specs from its front and the cold stream is the rest, so no
// spec repeats within either and none is shared between them.
func NewInputs(seed uint64) *Inputs {
	all := universe()
	rng(seed, streamUniverse).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	r := rng(seed, streamPool)
	in := &Inputs{Seed: seed}
	next := 0
	take := func() Spec { s := all[next]; next++; return s }
	for k := 0; k < poolSize; k++ {
		switch k % 10 {
		case 3: // ~10% single-trace replays
			in.Pool = append(in.Pool, PoolEntry{Replay: &Replay{Catalog: take(), Trace: burstyTrace(r, 2000+r.IntN(3000))}})
		case 7: // ~10% batches
			b := make([]Spec, batchSize)
			for i := range b {
				b[i] = take()
			}
			in.Pool = append(in.Pool, PoolEntry{Batch: b})
		default: // ~80% catalogs
			s := take()
			in.Pool = append(in.Pool, PoolEntry{Catalog: &s})
		}
	}
	in.Cold = all[next:]
	for _, s := range in.Cold {
		if s.Family == "swin" {
			in.Fleet = append(in.Fleet, s)
		}
	}
	return in
}

// PoolCatalogs lists the pool's single-catalog specs.
func (in *Inputs) PoolCatalogs() []Spec {
	var out []Spec
	for _, e := range in.Pool {
		if e.Catalog != nil {
			out = append(out, *e.Catalog)
		}
	}
	return out
}

// Mixed request kinds and their shares of the schedule, in per mille.
const (
	mixedHitPerMille    = 970
	mixedReplayPerMille = 25
)

// MixedItem is one scheduled request of the mixed workload.
type MixedItem struct {
	Kind   string // hit, replay or build
	Pool   int    // hit: index into Inputs.Pool
	Replay Replay // replay: a unique trace over a pool catalog
	Build  Spec   // build: a spec from the cold stream
}

// Mixed draws n scheduled requests: ~97% hits on the warm pool, ~2.5%
// unique replays of 20k-200k frames over pool catalogs, ~0.5% builds of
// unique cold specs.
func (in *Inputs) Mixed(n int) []MixedItem {
	r := rng(in.Seed, streamMixed)
	cats := in.PoolCatalogs()
	out := make([]MixedItem, 0, n)
	hits, builds := 0, 0
	for len(out) < n {
		switch x := r.IntN(1000); {
		case x < mixedHitPerMille:
			out = append(out, MixedItem{Kind: "hit", Pool: hits % len(in.Pool)})
			hits++
		case x < mixedHitPerMille+mixedReplayPerMille:
			cat := cats[r.IntN(len(cats))]
			out = append(out, MixedItem{Kind: "replay", Replay: Replay{Catalog: cat, Trace: burstyTrace(r, 20_000+r.IntN(180_001))}})
		default:
			out = append(out, MixedItem{Kind: "build", Build: in.Cold[builds]})
			builds++
		}
	}
	return out
}

// FleetItem is one request of the fleet workload: touch 0 of a spec
// goes to daemon Spec%3, touches 1 and 2 to the next two daemons.
type FleetItem struct {
	Spec   int // index into Inputs.Fleet
	Touch  int // 0, 1 or 2
	Daemon int
}

// fleetDaemons is the fleet size; fleetLag is how many specs later a
// spec's next touch is sent.
const (
	fleetDaemons = 3
	fleetLag     = 40
)

// FleetOrder lays out the fleet request order: in round m, the first touch
// of spec m, the second touch of spec m-lag and the third of spec
// m-2·lag, each on the next daemon round the ring.
func FleetOrder(specs int) []FleetItem {
	var out []FleetItem
	for m := 0; m < specs+2*fleetLag; m++ {
		for touch := 0; touch < fleetDaemons; touch++ {
			s := m - touch*fleetLag
			if s < 0 || s >= specs {
				continue
			}
			out = append(out, FleetItem{Spec: s, Touch: touch, Daemon: (s + touch) % fleetDaemons})
		}
	}
	return out
}
