// Package vitdyn is the public API of this repository: a full
// reproduction, in pure Go, of "Vision Transformer Computation and
// Resilience for Dynamic Inference" (ISPASS 2024).
//
// It exposes four capabilities:
//
//  1. An analytical model zoo (SegFormer, Swin+UPerNet, the DETR family,
//     ResNet-50/OFA, ViT) whose layer graphs reproduce the paper's FLOP and
//     parameter counts (Table I).
//  2. Execution-cost models: an NVIDIA RTX A5000 latency model and a
//     MAGNet accelerator simulator with the paper's thirteen Table II
//     parameterizations (Sections III-C and IV).
//  3. The alternative-execution-path machinery of Section V: pruning
//     pretrained SegFormer/Swin models, paper-anchored accuracy resilience
//     surfaces, and the Once-For-All ResNet-50 subnet family.
//  4. The RDD (resource-dependent dynamic) inference runtime: path
//     catalogs, budget-driven path selection, and trace-replay simulation.
//  5. A serving layer (the vitdynd daemon): HTTP catalog/profiling
//     endpoints over a process-wide, LRU-evicting cost store shared
//     across requests.
//
// The subpackage types are re-exported here as aliases so downstream code
// only imports vitdyn. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-versus-measured results of every table and
// figure.
package vitdyn

import (
	"context"
	"io"

	"vitdyn/internal/accuracy"
	"vitdyn/internal/core"
	"vitdyn/internal/costdb"
	"vitdyn/internal/engine"
	"vitdyn/internal/flops"
	"vitdyn/internal/gpu"
	"vitdyn/internal/graph"
	"vitdyn/internal/magnet"
	"vitdyn/internal/nn"
	"vitdyn/internal/obs"
	"vitdyn/internal/pareto"
	"vitdyn/internal/prune"
	"vitdyn/internal/rdd"
	"vitdyn/internal/report"
	"vitdyn/internal/serve"
)

// --- Layer graph IR ---

// Graph is an ordered list of layers describing one inference.
type Graph = graph.Graph

// Layer is one operator instance with concrete shapes.
type Layer = graph.Layer

// Kind identifies an operator class.
type Kind = graph.Kind

// Operator kinds.
const (
	Conv2D      = graph.Conv2D
	DWConv2D    = graph.DWConv2D
	Linear      = graph.Linear
	MatMul      = graph.MatMul
	Softmax     = graph.Softmax
	LayerNorm   = graph.LayerNorm
	BatchNorm   = graph.BatchNorm
	ReLU        = graph.ReLU
	GELU        = graph.GELU
	Add         = graph.Add
	Interpolate = graph.Interpolate
	Concat      = graph.Concat
	Pool        = graph.Pool
	Reshape     = graph.Reshape
)

// --- Model zoo ---

// SegFormerConfig configures a MiT encoder + all-MLP decoder build.
type SegFormerConfig = nn.SegFormerConfig

// SwinConfig configures a Swin + UPerNet build.
type SwinConfig = nn.SwinConfig

// ResNetConfig configures a (possibly elastic) ResNet build.
type ResNetConfig = nn.ResNetConfig

// OFASubnet is one Once-For-All ResNet-50 subnet with its top-1 accuracy.
type OFASubnet = nn.OFASubnet

// DETRVariant selects a DETR-family detector.
type DETRVariant = nn.DETRVariant

// DETR-family variants.
const (
	DETR            = nn.DETR
	DABDETR         = nn.DABDETR
	AnchorDETR      = nn.AnchorDETR
	ConditionalDETR = nn.ConditionalDETR
)

// NewSegFormer builds a SegFormer variant ("B0".."B5") for numClasses at
// the given input size.
func NewSegFormer(variant string, numClasses, imgH, imgW int) (*Graph, error) {
	cfg, err := nn.SegFormerB(variant, numClasses)
	if err != nil {
		return nil, err
	}
	return nn.SegFormer(cfg, imgH, imgW)
}

// NewSwin builds a Swin variant ("Tiny", "Small", "Base") with the UPerNet
// decode head.
func NewSwin(variant string, numClasses, imgH, imgW int) (*Graph, error) {
	cfg, err := nn.SwinVariant(variant, numClasses)
	if err != nil {
		return nil, err
	}
	return nn.Swin(cfg, imgH, imgW)
}

// NewDETR builds a DETR-family detector with its ResNet-50 backbone.
func NewDETR(variant DETRVariant, imgH, imgW int) (*Graph, error) {
	return nn.DETRModel(variant, imgH, imgW)
}

// NewResNet50 builds the standard ResNet-50.
func NewResNet50(imgH, imgW int, includeHead bool) (*Graph, error) {
	return nn.ResNet(nn.ResNet50(1000, includeHead), imgH, imgW)
}

// NewOFAResNet builds one OFA subnet.
func NewOFAResNet(sub OFASubnet, imgH, imgW int) (*Graph, error) {
	return nn.OFAResNet(sub, imgH, imgW)
}

// OFASubnets returns the Fig. 13 subnet catalog, largest first.
func OFASubnets() []OFASubnet { return nn.OFACatalog() }

// --- Profiling ---

// Profile is an analytical FLOP/parameter/traffic profile.
type Profile = flops.Profile

// ProfileFLOPs analyzes a graph at the given datatype width in bytes.
func ProfileFLOPs(g *Graph, bytesPerElem int) *Profile {
	return flops.Analyze(g, bytesPerElem)
}

// GPUDevice is an analytical GPU latency model.
type GPUDevice = gpu.Device

// GPUResult is a modeled GPU execution profile.
type GPUResult = gpu.Result

// A5000 returns the calibrated NVIDIA RTX A5000 model.
func A5000() GPUDevice { return gpu.A5000() }

// --- Accelerator simulation ---

// AcceleratorConfig is one MAGNet parameterization.
type AcceleratorConfig = magnet.Config

// AcceleratorResult is a simulated accelerator execution.
type AcceleratorResult = magnet.Result

// TableIIAccelerators returns the paper's thirteen parameterizations A-M.
func TableIIAccelerators() []AcceleratorConfig { return magnet.TableII() }

// AcceleratorE returns the paper's balanced design point.
func AcceleratorE() AcceleratorConfig { return magnet.AcceleratorE() }

// AcceleratorByName returns a Table II configuration by label.
func AcceleratorByName(name string) (AcceleratorConfig, error) { return magnet.ByName(name) }

// --- Pruning and resilience ---

// SegFormerPath is one SegFormer execution-path configuration.
type SegFormerPath = prune.SegFormerPath

// SwinPath is one Swin execution-path configuration.
type SwinPath = prune.SwinPath

// SegFormerResilience is the anchored SegFormer accuracy surface.
type SegFormerResilience = accuracy.SegFormerResilience

// SwinResilience is the Swin accuracy surface.
type SwinResilience = accuracy.SwinResilience

// TableIIIPaths returns the paper's named B2..B2f configurations.
func TableIIIPaths() []SegFormerPath { return prune.TableIII() }

// ApplySegFormerPath builds the pruned SegFormer graph for a path.
func ApplySegFormerPath(cfg SegFormerConfig, imgH, imgW int, p SegFormerPath) (*Graph, error) {
	return prune.ApplySegFormer(cfg, imgH, imgW, p)
}

// ApplySwinPath builds the pruned Swin graph for a path.
func ApplySwinPath(cfg SwinConfig, imgH, imgW int, p SwinPath) (*Graph, error) {
	return prune.ApplySwin(cfg, imgH, imgW, p)
}

// SegFormerADEResilience returns the Table III-anchored ADE20K surface.
func SegFormerADEResilience() *SegFormerResilience { return accuracy.NewSegFormerADE() }

// SegFormerCityResilience returns the Cityscapes surface.
func SegFormerCityResilience() *SegFormerResilience { return accuracy.NewSegFormerCity() }

// --- RDD inference ---

// RDDPath is one executable configuration with cost and accuracy.
type RDDPath = rdd.Path

// RDDCatalog is a Pareto-reduced set of execution paths.
type RDDCatalog = rdd.Catalog

// ResourceTrace is a sequence of per-frame budgets.
type ResourceTrace = rdd.Trace

// RDDSimResult summarizes replaying a trace.
type RDDSimResult = rdd.SimResult

// CostBackend prices one inference of a graph on an execution substrate.
// It replaced the closed execution-target struct: any implementation —
// the built-in GPU latency model, the MAGNet time/energy simulations, the
// FLOPs proxy, or user code — can drive catalog construction.
type CostBackend = engine.CostBackend

// SweepCandidate is one labeled execution path awaiting costing.
type SweepCandidate = engine.Candidate

// SweepCandidateSeq is a push generator of candidates, consumable with
// range-over-func.
type SweepCandidateSeq = engine.CandidateSeq

// StreamStats counts candidates through the streaming catalog pipeline:
// generated, pre-filtered before backend costing, costed, and admitted to
// the running Pareto frontier.
type StreamStats = engine.StreamStats

// StreamOptions tunes the streaming pipeline — chiefly the FLOPs-proxy
// admission pre-filter margin: positive enables it, negative disables,
// and 0 (the default) enables it only for backends declaring
// engine.FLOPsMonotone (all built-in backends do; custom backends cost
// every candidate unless they opt in).
type StreamOptions = engine.StreamOptions

// SweepEngine fans candidate costing out across a worker pool with a
// memoized, signature-keyed cost cache and deterministic result order.
type SweepEngine = engine.Engine

// NewSweepEngine returns an engine over the backend; workers <= 0 selects
// GOMAXPROCS, workers == 1 is sequential.
func NewSweepEngine(backend CostBackend, workers int) *SweepEngine {
	return engine.New(backend, workers)
}

// TargetGPU costs paths on the modeled A5000.
func TargetGPU() CostBackend { return core.TargetGPU() }

// TargetAcceleratorE costs paths by time on accelerator E.
func TargetAcceleratorE() CostBackend { return core.TargetAcceleratorE() }

// TargetAcceleratorEEnergy costs paths by energy on accelerator E.
func TargetAcceleratorEEnergy() CostBackend { return core.TargetAcceleratorEEnergy() }

// TargetFLOPs costs paths by analytical GMACs — the fast smoke-costing
// proxy backend.
func TargetFLOPs() CostBackend { return core.TargetFLOPs() }

// GPUBackend costs paths on an arbitrary GPU device model.
func GPUBackend(d GPUDevice) CostBackend { return engine.GPU(d) }

// AcceleratorTimeBackend costs paths by simulated time on an arbitrary
// accelerator configuration.
func AcceleratorTimeBackend(c AcceleratorConfig) CostBackend { return engine.MagnetTime(c) }

// AcceleratorEnergyBackend costs paths by simulated energy.
func AcceleratorEnergyBackend(c AcceleratorConfig) CostBackend { return engine.MagnetEnergy(c) }

// MultiCostBackend prices several metrics from one evaluation — e.g.
// accelerator time AND energy from a single MAGNet simulation pass.
type MultiCostBackend = engine.MultiCostBackend

// AcceleratorTimeEnergyBackend returns a vector backend producing
// [time ms, energy mJ] on the accelerator from one simulation, halving
// accelerator work for sweeps needing both metrics. As a plain
// CostBackend it costs by time.
func AcceleratorTimeEnergyBackend(c AcceleratorConfig) MultiCostBackend {
	return engine.MagnetTimeEnergy(c)
}

// --- Serving ---

// CostStore is a process-wide, sharded, LRU-evicting (backend, graph
// signature) → cost store with hit/miss/eviction counters. Engines built
// with NewSweepEngineWithStore — and every engine the vitdynd server
// creates — share one store, so overlapping sweeps across requests reuse
// each other's costed shapes.
type CostStore = serve.Store

// CostStoreStats is a point-in-time snapshot of a store's counters.
type CostStoreStats = serve.StoreStats

// NewCostStore returns a store holding at most capacity entries
// (capacity <= 0 selects the default).
func NewCostStore(capacity int) *CostStore { return serve.NewStore(capacity) }

// NewSweepEngineWithStore returns an engine whose costs are memoized in
// the shared store instead of a private per-engine cache.
func NewSweepEngineWithStore(backend CostBackend, workers int, store *CostStore) *SweepEngine {
	return engine.NewWithCache(backend, workers, store)
}

// SweepCostCache is the memoization interface shared across engines:
// (backend name, graph signature) → cost vector. CostStore and
// PersistentCostStore both implement it.
type SweepCostCache = engine.CostCache

// NewSweepEngineWithCache returns an engine memoized in any
// SweepCostCache — e.g. a PersistentCostStore, so sweeps write through
// to disk.
func NewSweepEngineWithCache(backend CostBackend, workers int, cache SweepCostCache) *SweepEngine {
	return engine.NewWithCache(backend, workers, cache)
}

// PersistentCostStore is the durable tier beneath a cost cache: a
// versioned, checksummed binary snapshot plus an append-only WAL of
// cost inserts (auto-compacted), composed over any SweepCostCache. It
// is what vitdynd's -store-path and the cmds' -cache-path open: costed
// shapes survive restarts, and ExportTo/Import stream the snapshot
// format so one process can seed another.
type PersistentCostStore = costdb.Persistent

// PersistentCostStoreOptions tunes compaction thresholds; the zero
// value selects the defaults.
type PersistentCostStoreOptions = costdb.Options

// PersistentCostStoreStats is a point-in-time view of the durable tier.
type PersistentCostStoreStats = costdb.Stats

// OpenPersistentCostStore loads (or initializes) a durable cost store
// in dir over the given fast tier (nil selects a built-in map cache):
// snapshot read whole and checksum-verified, WAL replayed with a torn
// tail truncated, every loaded entry pre-warming the fast tier.
func OpenPersistentCostStore(dir string, inner SweepCostCache, opts PersistentCostStoreOptions) (*PersistentCostStore, error) {
	return costdb.Open(dir, inner, opts)
}

// BackendEvaluations returns the cumulative number of genuine backend
// cost evaluations this process has performed (memo hits at any cache
// tier do not count) — the observability hook warm-boot tests assert
// "zero backend evaluations" with.
func BackendEvaluations() int64 { return engine.BackendEvals() }

// CostEpocher is optionally implemented by cost backends that version
// their cost model: Epoch() returns a monotonically bumped constant, and
// any change to the backend's pricing must bump it. The epoch keeps
// cached costs honest — it is folded into every cost-store key, stamped
// into persisted costdb entries, and invalidates catalog-cache entries.
type CostEpocher = engine.Epocher

// BackendCostEpoch returns the backend's cost-model epoch fingerprint
// (never zero) and registers it as the backend's current epoch for
// StaleCostEpoch queries. Two processes running the same backend code
// compute the same fingerprint, so persisted costs transfer.
func BackendCostEpoch(b CostBackend) uint64 { return engine.BackendEpoch(b) }

// StaleCostEpoch reports whether epoch is a superseded cost-model epoch
// for the named backend — true only when the backend has registered a
// different current epoch in this process. It is the canonical
// PersistentCostStoreOptions.StaleEpoch policy: compaction retires
// entries priced under an old cost model.
func StaleCostEpoch(backend string, epoch uint64) bool { return engine.StaleEpoch(backend, epoch) }

// SetCostEpochSalt perturbs every subsequently computed backend epoch
// process-wide — a forced global cache invalidation for tests and
// operational escape hatches. Zero (the default) means no perturbation.
func SetCostEpochSalt(salt uint64) { engine.SetEpochSalt(salt) }

// ServeOptions configures the serving layer: the shared store, the
// per-request worker cap, the server-wide concurrent-sweep limit and the
// request timeout. The zero value selects sensible defaults.
type ServeOptions = serve.Options

// RDDServer is the HTTP serving layer behind the vitdynd daemon:
// /v1/catalog, /v1/batch, /v1/replay, /v1/profile, /v1/backends,
// /healthz and /statsz over one shared cost store, every catalog built
// through the streaming pipeline.
type RDDServer = serve.Server

// ReplayRequest is the POST /v1/replay body: one catalog spec plus one
// (Trace) or many (Traces) declarative trace specs, replayed server-side
// under each requested path-selection policy.
type ReplayRequest = serve.ReplayRequest

// ReplayResponse is the /v1/replay response: the built catalog's
// identity plus one ReplayTraceResult per requested trace.
type ReplayResponse = serve.ReplayResponse

// ReplayTraceResult is one trace's replay across every policy.
type ReplayTraceResult = serve.ReplayTraceResult

// ReplayPolicyResult is one policy's replay outcome over one trace.
type ReplayPolicyResult = serve.ReplayPolicyResult

// CatalogResultCache is the serving layer's catalog-level result cache:
// a bounded LRU of built catalogs keyed by canonicalized request spec,
// invalidated when the backend's cost-model epoch changes. Read it off a
// server with RDDServer.CatalogCache().
type CatalogResultCache = serve.CatalogCache

// CatalogResultCacheStats is a point-in-time snapshot of the catalog
// cache counters — the /statsz catalog_cache section.
type CatalogResultCacheStats = serve.CatalogCacheStats

// NewRDDServer builds a server; mount its Handler() on any http.Server.
func NewRDDServer(opts ServeOptions) *RDDServer { return serve.NewServer(opts) }

// Serve runs the serving layer on addr until ctx is cancelled, then
// drains in-flight requests and returns — the programmatic equivalent of
// the vitdynd daemon.
func Serve(ctx context.Context, addr string, opts ServeOptions) error {
	return serve.ListenAndServe(ctx, addr, opts, nil)
}

// CatalogSpec names one execution-path catalog: a family —
// "segformer" (pretrained B2 pruning), "segformer-retrained" (B0/B1/B2
// switching), "swin" (pretrained pruning), "swin-retrained"
// (Tiny/Small/Base switching) or "ofa" (the Once-For-All ResNet-50 subnet
// ladder) — plus the dataset, variant and channel step it reads. Omitted
// fields take the family's defaults.
type CatalogSpec = core.Spec

// BuildRDDCatalog builds the catalog the spec names on the target.
// Construction streams: candidates are generated, pre-filtered against a
// FLOPs-proxy frontier, costed across GOMAXPROCS workers and reduced
// incrementally — byte-identical to a sequential batch build. The stats
// count how many candidates were generated, pre-filtered before any
// backend evaluation, costed, and admitted to the frontier. For explicit
// worker control, stream CatalogCandidates through NewSweepEngine — e.g.
//
//	name, seq, _ := vitdyn.CatalogCandidates(vitdyn.CatalogSpec{Family: "segformer", Step: 512})
//	cat, _, err := vitdyn.NewSweepEngine(target, 4).CatalogFromSeq(ctx, name, seq, vitdyn.StreamOptions{})
func BuildRDDCatalog(ctx context.Context, spec CatalogSpec, target CostBackend) (*RDDCatalog, StreamStats, error) {
	return core.Catalog(ctx, spec, target, 0)
}

// CatalogCandidates resolves the spec to its catalog name and candidate
// generator, for building the catalog on a custom engine.
func CatalogCandidates(spec CatalogSpec) (string, SweepCandidateSeq, error) { return spec.Seq() }

// TraceSpec is the declarative form of a resource trace — a generator
// kind plus its parameters, decodable from JSON. It is the one trace
// format the rddsim CLI (-trace-spec) and the vitdynd /v1/replay
// endpoint share.
type TraceSpec = rdd.TraceSpec

// TraceGenerator materializes a trace from a spec.
type TraceGenerator = rdd.TraceGenerator

// BuildTrace resolves a spec's kind through the trace-generator registry
// and materializes the trace.
func BuildTrace(s TraceSpec) (ResourceTrace, error) { return s.Build() }

// RegisterTraceKind adds (or replaces) a trace generator under a kind
// name, extending what BuildTrace — and every TraceSpec consumer, the
// serving layer included — can resolve.
func RegisterTraceKind(kind string, gen TraceGenerator) error {
	return rdd.RegisterTraceKind(kind, gen)
}

// TraceKinds lists every registered trace kind, sorted.
func TraceKinds() []string { return rdd.TraceKinds() }

// ErrBudgetInfeasible reports a budget below a catalog's cheapest path;
// match with errors.Is. The concrete error is *BudgetError.
var ErrBudgetInfeasible = rdd.ErrBudgetInfeasible

// BudgetError carries the catalog, the offending budget and the cheapest
// cost it failed to cover.
type BudgetError = rdd.BudgetError

// SinusoidTrace, StepTrace and BurstyTrace generate synthetic resource
// budgets; see internal/rdd for semantics.
func SinusoidTrace(frames int, lo, hi float64, period int) ResourceTrace {
	return rdd.SinusoidTrace(frames, lo, hi, period)
}

// StepTrace alternates between hi and lo budgets every stride frames.
func StepTrace(frames int, lo, hi float64, stride int) ResourceTrace {
	return rdd.StepTrace(frames, lo, hi, stride)
}

// BurstyTrace is a reproducible two-state Markov load.
func BurstyTrace(frames int, lo, hi, busyFrac float64, seed uint64) ResourceTrace {
	return rdd.BurstyTrace(frames, lo, hi, busyFrac, seed)
}

// ReadValuesTraceFile loads a recorded per-frame load trace from a CSV
// or newline-delimited file — the file form behind the "values-file"
// TraceSpec kind (resolved client-side; servers accept inline values).
func ReadValuesTraceFile(path string) (ResourceTrace, error) {
	return rdd.ReadValuesFile(path)
}

// SimulateStaticPath replays a trace with one fixed path.
func SimulateStaticPath(p RDDPath, tr ResourceTrace) RDDSimResult {
	return rdd.SimulateStatic(p, tr)
}

// EarlyExitModel is the input-dependent dynamic-inference baseline the
// paper contrasts with (Sections I and VI).
type EarlyExitModel = rdd.EarlyExitModel

// NewEarlyExitBaseline derives an early-exit baseline sharing a catalog's
// cost/accuracy frontier, with easyShare of inputs exiting at the first head.
func NewEarlyExitBaseline(c *RDDCatalog, easyShare float64) (*EarlyExitModel, error) {
	return rdd.EarlyExitFromCatalog(c, easyShare)
}

// --- Observability ---

// MetricsRegistry is the zero-dependency metrics core behind GET
// /metrics: counters, gauges, func-backed series and fixed-bucket
// latency histograms, rendered in Prometheus text exposition format.
// Every RDDServer owns one (RDDServer.Metrics()); register your own
// series on it, or pass a shared registry via ServeOptions.Metrics.
type MetricsRegistry = obs.Registry

// MetricLabel is one name/value label pair on a registered series.
type MetricLabel = obs.Label

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// LatencyHistogram is a fixed-bucket histogram with lock-free observes
// and mergeable snapshots — the type behind both the server's per-route
// latency series and loadgen's client-side percentiles.
type LatencyHistogram = obs.Histogram

// LatencyHistogramSnapshot is a point-in-time copy of a histogram,
// mergeable across histograms with identical bounds and queryable for
// interpolated quantiles.
type LatencyHistogramSnapshot = obs.HistogramSnapshot

// NewLatencyHistogram returns a histogram over the given ascending
// upper bounds (in seconds); nil selects DefaultLatencyBuckets.
func NewLatencyHistogram(bounds []float64) *LatencyHistogram { return obs.NewHistogram(bounds) }

// DefaultLatencyBuckets are the quarter-octave (ratio 2^1/4) bounds from
// 10µs to ~10.5s that every built-in latency series uses — fine enough
// that interpolated quantiles stay within ~±9%.
func DefaultLatencyBuckets() []float64 { return obs.DefaultLatencyBuckets }

// RequestTrace collects named stage spans for one request; the serving
// layer attaches one to ?debug=trace requests and returns its spans in
// the response's trace block. A nil *RequestTrace is valid and free, so
// instrumented code paths need no conditionals.
type RequestTrace = obs.Trace

// TraceStageSpan is one named, timed stage within a request trace.
type TraceStageSpan = obs.Span

// AccessLogger serializes one structured line per HTTP request (text or
// JSON); wire one into ServeOptions.AccessLog.
type AccessLogger = obs.AccessLogger

// AccessLogEntry is the shape of one access-log line.
type AccessLogEntry = obs.AccessEntry

// NewAccessLogger returns a logger writing to w in the given format.
func NewAccessLogger(w io.Writer, format obs.LogFormat) *AccessLogger {
	return obs.NewAccessLogger(w, format)
}

// Access-log formats.
const (
	AccessLogText = obs.TextFormat
	AccessLogJSON = obs.JSONFormat
)

// BuildVersion reports this binary's module version, Go version and VCS
// revision — the /versionz payload.
type BuildVersion = obs.BuildInfo

// Version returns the running binary's build info.
func Version() BuildVersion { return obs.Version() }

// SweepStageTimings accumulates per-stage worker time
// (generate/prefilter/cost/frontier) across a streaming catalog build
// when attached via StreamOptions.Timings; nil (the default) records
// nothing and costs nothing.
type SweepStageTimings = engine.StageTimings

// SweepStageDurations is a point-in-time read of SweepStageTimings.
type SweepStageDurations = engine.StageDurations

// --- Pareto / reporting utilities ---

// ParetoPoint is a cost/value candidate.
type ParetoPoint = pareto.Point

// ParetoFrontier extracts the non-dominated subset.
func ParetoFrontier(points []ParetoPoint) []ParetoPoint { return pareto.Frontier(points) }

// ParetoFrontierBuilder maintains a frontier incrementally: insert a
// point, learn immediately whether it is dominated, read the sorted
// frontier on demand — the primitive behind streaming catalog reduction.
type ParetoFrontierBuilder = pareto.FrontierBuilder

// NewParetoFrontierBuilder returns an empty incremental frontier.
func NewParetoFrontierBuilder() *ParetoFrontierBuilder { return pareto.NewFrontierBuilder() }

// NewRDDCatalogFromBuilder builds a catalog directly from an
// incrementally reduced frontier — identical to batch construction over
// the same points, with no intermediate path slice.
func NewRDDCatalogFromBuilder(model string, b *ParetoFrontierBuilder) (*RDDCatalog, error) {
	return rdd.NewCatalogFromBuilder(model, b)
}

// ReportTable is an aligned text/CSV table.
type ReportTable = report.Table

// NewReportTable creates a table with a title and column headers.
func NewReportTable(title string, headers ...string) *ReportTable {
	return report.NewTable(title, headers...)
}
