package magnet

import (
	"math"

	"vitdyn/internal/graph"
)

// Energy model constants (picojoules, 5 nm, 8-bit datapath). The relative
// magnitudes drive every Section IV result: the per-cycle PE control energy
// is amortized over K0*C0*utilization MACs, which is what makes
// few-input-channel layers expensive (Fig. 8) and K0=C0=16 designs ~1.4x
// less energy-efficient (Section IV-B); the weight-buffer read energy grows
// with buffer size, which is what pushes the 1 MB-buffer designs A and C
// off the Pareto frontier (Fig. 6).
const (
	eMAC     = 0.020 // pJ per 8-bit multiply-accumulate
	eRF      = 0.015 // pJ per register-file access (psum read or write)
	eCtlPE   = 4.0   // pJ per PE per active cycle (control, clocking, PPU)
	eGBByte  = 0.060 // pJ per global-buffer byte
	eDRAM    = 2.0   // pJ per DRAM byte (on-package LPDDR)
	eWBWrite = 0.020 // pJ per weight-buffer byte written (incl. multicast NoC)
	eIBWrite = 0.012 // pJ per input-buffer byte written
	ePPUElem = 0.010 // pJ per element through the post-processing/vector unit
)

// wbReadEnergy returns the per-byte weight-buffer read energy, which grows
// with the buffer's size beyond the 128 KB design point (longer bitlines,
// more banks); smaller buffers are dominated by periphery and stay flat.
func wbReadEnergy(sizeKB int) float64 {
	if sizeKB < 128 {
		sizeKB = 128
	}
	return 0.006 * (0.5 + math.Sqrt(float64(sizeKB)/128))
}

// ibReadEnergy returns the per-byte input-buffer read energy. One C0-wide
// row read is broadcast to all K0 vector MACs, so the per-MAC share divides
// by K0 (see layer cost).
func ibReadEnergy(sizeKB int) float64 {
	return 0.012 * (0.5 + math.Sqrt(float64(sizeKB)/64))
}

// LayerResult is the simulated execution of one layer.
type LayerResult struct {
	Name   string
	Kind   graph.Kind
	Module string
	MACs   int64

	Cycles      int64
	Utilization float64 // MACs / (cycles * peak MACs/cycle), 0 for pointwise
	Seconds     float64
	EnergyPJ    float64
	DRAMBytes   int64
	Fused       bool // folded into the producer's post-processing unit
}

// EnergyPerMAC returns the layer's energy per MAC in pJ (the Fig. 8 metric),
// or 0 for non-matrix layers.
func (lr *LayerResult) EnergyPerMAC() float64 {
	if lr.MACs == 0 {
		return 0
	}
	return lr.EnergyPJ / float64(lr.MACs)
}

// Result is the simulated execution of a whole graph on one configuration.
type Result struct {
	Model  string
	Accel  string
	Layers []LayerResult

	TotalSeconds  float64
	TotalEnergyPJ float64
	TotalMACs     int64
	TotalCycles   int64
	TotalDRAM     int64
}

// EnergyJ returns the total energy in joules.
func (r *Result) EnergyJ() float64 { return r.TotalEnergyPJ * 1e-12 }

// EnergyPerMAC returns the model-level energy per MAC in pJ — the y axis of
// Fig. 6 ("energy per FLOP").
func (r *Result) EnergyPerMAC() float64 {
	if r.TotalMACs == 0 {
		return 0
	}
	return r.TotalEnergyPJ / float64(r.TotalMACs)
}

// ThroughputPerArea returns inferences-per-second per mm^2 scaled by model
// MACs, i.e. effective GMACs/s/mm^2 — the x axis of Fig. 6 normalized by
// silicon cost.
func (r *Result) ThroughputPerArea(c Config) float64 {
	if r.TotalSeconds == 0 {
		return 0
	}
	return float64(r.TotalMACs) / 1e9 / r.TotalSeconds / c.AreaMM2()
}

// ConvShare returns conv layers' fraction of the given metric extractor.
func (r *Result) ConvShare(metric func(*LayerResult) float64) float64 {
	var conv, total float64
	for i := range r.Layers {
		v := metric(&r.Layers[i])
		total += v
		if r.Layers[i].Kind.IsConv() {
			conv += v
		}
	}
	if total == 0 {
		return 0
	}
	return conv / total
}

// ConvTimeShare returns the conv fraction of execution time (Figs. 7, 9).
func (r *Result) ConvTimeShare() float64 {
	return r.ConvShare(func(l *LayerResult) float64 { return l.Seconds })
}

// ConvEnergyShare returns the conv fraction of energy (Figs. 7, 9).
func (r *Result) ConvEnergyShare() float64 {
	return r.ConvShare(func(l *LayerResult) float64 { return l.EnergyPJ })
}

// mapping describes how one matrix layer decomposes onto the PE array.
type mapping struct {
	pixels int64 // spatial/token positions distributed across PEs
	groups int64
	kPerG  int64 // output channels per group
	cPerG  int64 // reduction channels per group (per cycle lanes dimension)
	window int64 // kernel positions (R*S) iterated temporally
}

// mapLayer derives the dataflow mapping for a matrix layer.
func mapLayer(l *graph.Layer) (mapping, bool) {
	switch l.Kind {
	case graph.Conv2D:
		return mapping{
			pixels: int64(l.OutH) * int64(l.OutW),
			groups: int64(l.Groups),
			kPerG:  int64(l.OutC) / int64(l.Groups),
			cPerG:  int64(l.InC) / int64(l.Groups),
			window: int64(l.KH) * int64(l.KW),
		}, true
	case graph.DWConv2D:
		// Depthwise convolutions spread channels over the K0 vector MACs,
		// but each vector MAC sees a single input channel, so only one of
		// its C0 lanes is busy — exactly the underutilization the paper
		// reports for the MLP DW Conv layers ("one input channel due to how
		// we exploit parallelism in mappings for depthwise convolutions",
		// Section IV-C).
		return mapping{
			pixels: int64(l.OutH) * int64(l.OutW),
			groups: 1,
			kPerG:  int64(l.OutC),
			cPerG:  1,
			window: int64(l.KH) * int64(l.KW),
		}, true
	case graph.Linear:
		return mapping{
			pixels: int64(l.Tokens),
			groups: 1,
			kPerG:  int64(l.OutF),
			cPerG:  int64(l.InF),
			window: 1,
		}, true
	case graph.MatMul:
		return mapping{
			pixels: int64(l.Batch) * int64(l.M),
			groups: 1,
			kPerG:  int64(l.N),
			cPerG:  int64(l.K),
			window: 1,
		}, true
	}
	return mapping{}, false
}

// ppuFused reports whether the accelerator folds the layer into the
// post-processing/vector path of its producer. The MAGNet template fuses
// activations and pooling with the preceding convolution, and the
// transformer extension (Keller et al.) streams softmax and normalization
// through the same path, so no pointwise operator makes a separate pass
// over DRAM. Their (small) vector-unit energy is charged per element; their
// input/output traffic is accounted by the matrix layers that produce and
// consume the tensors.
func ppuFused(l *graph.Layer) bool {
	return !l.Kind.IsMatrix()
}

func ceil64(a, b int64) int64 { return (a + b - 1) / b }

// Simulate runs one inference of the graph on the configuration.
func (c Config) Simulate(g *graph.Graph) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	r := &Result{Model: g.Name, Accel: c.Name, Layers: make([]LayerResult, 0, len(g.Layers))}
	for i := range g.Layers {
		lr := c.SimulateLayer(&g.Layers[i])
		r.TotalSeconds += lr.Seconds
		r.TotalEnergyPJ += lr.EnergyPJ
		r.TotalMACs += lr.MACs
		r.TotalCycles += lr.Cycles
		r.TotalDRAM += lr.DRAMBytes
		r.Layers = append(r.Layers, lr)
	}
	return r, nil
}

// SimulateLayer models the cycles, energy and DRAM traffic of one layer.
// It does not check the configuration (Simulate does): call Validate
// first. Simulate's totals are these per-layer results summed in layer
// order.
func (c Config) SimulateLayer(l *graph.Layer) LayerResult {
	lr := LayerResult{Name: l.Name, Kind: l.Kind, Module: l.Module, MACs: l.MACs()}

	if ppuFused(l) {
		lr.Fused = true
		lr.EnergyPJ = float64(l.Elems) * ePPUElem
		return lr
	}

	m, _ := mapLayer(l)

	numPE := int64(c.NumPE)
	k0 := int64(c.K0)
	c0 := int64(c.C0)

	// --- Cycle count from the loop nest ---
	pixPerPE := ceil64(m.pixels, numPE)
	cycles := pixPerPE * m.groups * ceil64(m.kPerG, k0) * ceil64(m.cPerG, c0) * m.window
	if cycles == 0 {
		cycles = 1
	}
	peak := cycles * numPE * k0 * c0
	util := float64(lr.MACs) / float64(peak)
	lr.Cycles = cycles
	lr.Utilization = util

	// --- Traffic model ---
	bpe := int64(c.BytesPerElem)
	weightBytes := l.Params() * bpe
	inputBytes := l.InputElems() * bpe
	outputBytes := l.OutputElems() * bpe
	wbBytes := int64(c.WeightBufKB) * 1024
	gbBytes := int64(c.GlobalBufKB) * 1024

	// The mapper tiles activations spatially only (the MAGNet tiling:
	// weights split by output channel, activations by image height and
	// width). The output pixels resident per PE are bounded by the
	// partial-sum buffer (4-byte psums) and by the input buffer, which must
	// hold the full reduction depth for each resident pixel.
	ptile := int64(c.AccumBufKB) * 1024 / (k0 * 4)
	if m.cPerG > 1 {
		ibPixels := int64(c.InputBufKB) * 1024 / (m.cPerG * int64(c.BytesPerElem))
		if ibPixels < ptile {
			ptile = ibPixels
		}
	}
	if ptile < 1 {
		ptile = 1
	}
	chunks := ceil64(m.pixels, numPE*ptile)
	if chunks < 1 {
		chunks = 1
	}

	// Local-weight-stationary: if the full weight set fits in a PE's weight
	// buffer it is loaded once and activations stream through. Otherwise the
	// mapper re-streams weights once per spatial chunk, but never more often
	// than the number of weight-buffer-sized tiles (the alternative schedule
	// that iterates output-channel tiles with full reduction depth resident).
	weightPasses := int64(1)
	if weightBytes > wbBytes {
		weightPasses = chunks
		if tiles := ceil64(weightBytes, wbBytes); tiles < weightPasses {
			weightPasses = tiles
		}
	}

	// Row-buffer halo: convolutions with KH>1 re-fetch input rows when the
	// input buffer cannot hold a KH-row slab of all input channels.
	haloPasses := int64(1)
	if l.Kind == graph.Conv2D && l.KH > 1 {
		rowSlab := int64(l.InC) * int64(l.KH) * 32 * bpe // 32-pixel row segments
		if rowSlab > int64(c.InputBufKB)*1024 {
			haloPasses = int64(l.KH)
		}
	}

	gbWeightReads := weightBytes * weightPasses
	wbFills := gbWeightReads * numPE // every PE holds its own copy
	gbInputReads := inputBytes * haloPasses
	ibFills := gbInputReads
	gbOutputWrites := outputBytes

	// DRAM traffic: weights are cold and stream from DRAM (once when the
	// global buffer can cache them, per pass otherwise). Activations hit
	// DRAM only when a tensor exceeds the global buffer — smaller
	// intermediates are produced and consumed on chip.
	dram := weightBytes
	if weightBytes > gbBytes {
		dram = gbWeightReads
	}
	if inputBytes > gbBytes {
		dram += gbInputReads
	}
	if outputBytes > gbBytes {
		dram += outputBytes
	}
	lr.DRAMBytes = dram

	// --- Energy ---
	macs := float64(lr.MACs)
	energy := macs * eMAC
	energy += macs * wbReadEnergy(c.WeightBufKB)              // one weight byte per MAC
	energy += macs / float64(k0) * ibReadEnergy(c.InputBufKB) // C0-wide reads shared by K0 vMACs
	energy += 2 * eRF * float64(cycles*numPE*k0)              // psum read+write per vMAC per cycle
	energy += eCtlPE * float64(cycles*numPE)                  // control, clocking, PPU
	energy += float64(wbFills)*eWBWrite + float64(ibFills)*eIBWrite
	energy += float64(gbWeightReads+gbInputReads+gbOutputWrites) * eGBByte
	energy += float64(dram) * eDRAM
	lr.EnergyPJ = energy

	// --- Time: compute unless DRAM streaming dominates ---
	computeSec := float64(cycles) / (c.FreqGHz * 1e9)
	dramSec := float64(dram) / (c.DRAMGBs * 1e9)
	lr.Seconds = math.Max(computeSec, dramSec)
	return lr
}
