package engine

import (
	"vitdyn/internal/gpu"
	"vitdyn/internal/graph"
	"vitdyn/internal/magnet"
)

// LayerAdditive is an optional CostBackend marker for backends whose cost
// vector is a sum of independent per-layer addends, scaled once at the
// end. The engine then prices a candidate that carries a plan (see
// graph.Plan) without building its graph: the addends of every layer of
// the plan's template are computed once per (backend, epoch, template),
// and the candidate's cost is the addends of the positions it keeps, plus
// those of its few patched layers, summed in layer order and passed
// through ScaleCost. The result must be bit-identical to Cost (or
// CostVector) on the materialised graph — summing in layer order is what
// makes it so.
type LayerAdditive interface {
	// LayerCost writes l's addends into dst, one per cost-vector
	// component: len(dst) is len(Metrics()) for a MultiCostBackend and 1
	// otherwise. It fails exactly when Cost would fail on any graph.
	LayerCost(l *graph.Layer, dst []float64) error
	// ScaleCost turns the in-order addend sums into the cost vector, in
	// place.
	ScaleCost(sums []float64)
}

// gpuBackend costs graphs in milliseconds on an analytical GPU latency
// model. gpu.Device.Run only reads the device tables, so one device can
// serve all workers.
type gpuBackend struct {
	dev gpu.Device
}

// GPU returns a backend costing paths on the device (milliseconds).
func GPU(dev gpu.Device) CostBackend { return gpuBackend{dev: dev} }

func (b gpuBackend) Name() string { return "gpu/" + b.dev.Name }

// FLOPsMonotone: the latency model is roofline-shaped, so time ordering
// tracks FLOPs once graphs differ by more than the default margin.
func (gpuBackend) FLOPsMonotone() bool { return true }

func (b gpuBackend) Cost(g *graph.Graph) (float64, error) {
	return b.dev.Run(g).Total * 1e3, nil
}

// LayerCost: gpu.Device.Run sums per-layer LayerSeconds.
func (b gpuBackend) LayerCost(l *graph.Layer, dst []float64) error {
	dst[0], _ = b.dev.LayerSeconds(l)
	return nil
}

func (gpuBackend) ScaleCost(sums []float64) { sums[0] *= 1e3 }

// magnetBackend costs graphs on a MAGNet accelerator simulation, by time
// (milliseconds) or energy (millijoules).
type magnetBackend struct {
	cfg    magnet.Config
	energy bool
}

// MagnetTime returns a backend costing paths by simulated execution time
// on the accelerator (milliseconds).
func MagnetTime(cfg magnet.Config) CostBackend { return magnetBackend{cfg: cfg} }

// MagnetEnergy returns a backend costing paths by simulated energy on the
// accelerator (millijoules).
func MagnetEnergy(cfg magnet.Config) CostBackend { return magnetBackend{cfg: cfg, energy: true} }

func (b magnetBackend) Name() string {
	if b.energy {
		return "magnet-energy/" + b.cfg.Name
	}
	return "magnet-time/" + b.cfg.Name
}

// FLOPsMonotone: simulated time and energy are dominated by MAC counts.
func (magnetBackend) FLOPsMonotone() bool { return true }

func (b magnetBackend) Cost(g *graph.Graph) (float64, error) {
	r, err := b.cfg.Simulate(g)
	if err != nil {
		return 0, err
	}
	if b.energy {
		return r.EnergyJ() * 1e3, nil
	}
	return r.TotalSeconds * 1e3, nil
}

// LayerCost: magnet.Config.Simulate sums per-layer SimulateLayer
// results, after validating the configuration.
func (b magnetBackend) LayerCost(l *graph.Layer, dst []float64) error {
	if err := b.cfg.Validate(); err != nil {
		return err
	}
	lr := b.cfg.SimulateLayer(l)
	if b.energy {
		dst[0] = lr.EnergyPJ
	} else {
		dst[0] = lr.Seconds
	}
	return nil
}

func (b magnetBackend) ScaleCost(sums []float64) {
	if b.energy {
		sums[0] = energyMJ(sums[0])
	} else {
		sums[0] *= 1e3
	}
}

// energyMJ converts summed picojoules to millijoules the way Cost does:
// through magnet.Result.EnergyJ, then to millijoules.
func energyMJ(pj float64) float64 {
	r := magnet.Result{TotalEnergyPJ: pj}
	return r.EnergyJ() * 1e3
}

// magnetMultiBackend prices time and energy from one simulation pass.
type magnetMultiBackend struct {
	cfg magnet.Config
}

// MagnetTimeEnergy returns a vector backend producing execution time
// (milliseconds) and energy (millijoules) on the accelerator from a
// single MAGNet simulation — halving accelerator work for sweeps that
// need both metrics (the Fig. 11/12/13 experiments). As a plain
// CostBackend it costs by time, so it drops into time-ordered catalogs
// unchanged.
func MagnetTimeEnergy(cfg magnet.Config) MultiCostBackend { return magnetMultiBackend{cfg: cfg} }

func (b magnetMultiBackend) Name() string { return "magnet-multi/" + b.cfg.Name }

// FLOPsMonotone: see magnetBackend.
func (magnetMultiBackend) FLOPsMonotone() bool { return true }

// Metrics names the vector components: time in milliseconds, then energy
// in millijoules.
func (magnetMultiBackend) Metrics() []string { return []string{"time_ms", "energy_mj"} }

func (b magnetMultiBackend) CostVector(g *graph.Graph) ([]float64, error) {
	r, err := b.cfg.Simulate(g)
	if err != nil {
		return nil, err
	}
	return []float64{r.TotalSeconds * 1e3, r.EnergyJ() * 1e3}, nil
}

func (b magnetMultiBackend) Cost(g *graph.Graph) (float64, error) {
	v, err := b.CostVector(g)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// LayerCost: time and energy addends of one simulated layer.
func (b magnetMultiBackend) LayerCost(l *graph.Layer, dst []float64) error {
	if err := b.cfg.Validate(); err != nil {
		return err
	}
	lr := b.cfg.SimulateLayer(l)
	dst[0], dst[1] = lr.Seconds, lr.EnergyPJ
	return nil
}

func (magnetMultiBackend) ScaleCost(sums []float64) {
	sums[0] *= 1e3
	sums[1] = energyMJ(sums[1])
}

// flopsBackend is the cheap smoke-costing proxy: cost equals the graph's
// GMAC count. It preserves the FLOP ordering of a sweep without running
// any latency or energy model, which makes it ideal for fast tests and
// for pre-filtering huge sweeps before an expensive backend pass.
type flopsBackend struct{}

// FLOPs returns the FLOPs-proxy backend (cost in GMACs).
func FLOPs() CostBackend { return flopsBackend{} }

func (flopsBackend) Name() string { return "flops-proxy" }

// FLOPsMonotone: cost IS the FLOPs count, so the pre-filter is exact.
func (flopsBackend) FLOPsMonotone() bool { return true }

func (flopsBackend) Cost(g *graph.Graph) (float64, error) {
	return float64(g.TotalMACs()) / 1e9, nil
}

// LayerCost: a graph's MACs are the sum of its layers'. Every partial
// sum stays far below 2^53, so the float64 sum is exact and equals
// float64(TotalMACs).
func (flopsBackend) LayerCost(l *graph.Layer, dst []float64) error {
	dst[0] = float64(l.MACs())
	return nil
}

func (flopsBackend) ScaleCost(sums []float64) { sums[0] /= 1e9 }
