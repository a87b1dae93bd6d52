package magnet

import (
	"strings"
	"testing"
	"testing/quick"

	"vitdyn/internal/graph"
	"vitdyn/internal/nn"
)

func mustSim(t *testing.T, c Config, g *graph.Graph) *Result {
	t.Helper()
	r, err := c.Simulate(g)
	if err != nil {
		t.Fatalf("Simulate(%s, %s): %v", c.Name, g.Name, err)
	}
	return r
}

// TestSegFormerOnAcceleratorE checks the Section IV-C headline: SegFormer
// ADE B2 runs in ~3.6 ms on accelerator E, with convolutions ~74% of both
// execution time and energy and Conv2DFuse alone about half of each.
func TestSegFormerOnAcceleratorE(t *testing.T) {
	r := mustSim(t, AcceleratorE(), nn.MustSegFormer("B2", 150, 512, 512))
	ms := r.TotalSeconds * 1e3
	if ms < 3.0 || ms > 4.4 {
		t.Errorf("SegFormer on E = %.2f ms, paper reports 3.6", ms)
	}
	if s := r.ConvTimeShare(); s < 0.58 || s > 0.80 {
		t.Errorf("conv time share = %.3f, paper reports 0.74", s)
	}
	if s := r.ConvEnergyShare(); s < 0.55 || s > 0.80 {
		t.Errorf("conv energy share = %.3f, paper reports 0.74", s)
	}
	var fuse *LayerResult
	for i := range r.Layers {
		if r.Layers[i].Name == "dec.conv2dfuse" {
			fuse = &r.Layers[i]
		}
	}
	if fuse == nil {
		t.Fatal("Conv2DFuse missing from result")
	}
	if ts := fuse.Seconds / r.TotalSeconds; ts < 0.42 {
		t.Errorf("Conv2DFuse time share = %.3f, paper reports over half", ts)
	}
	if es := fuse.EnergyPJ / r.TotalEnergyPJ; es < 0.42 {
		t.Errorf("Conv2DFuse energy share = %.3f, paper reports over half", es)
	}
	// Conv2DFuse fully utilizes the vector lanes (3072 input channels).
	if fuse.Utilization < 0.95 {
		t.Errorf("Conv2DFuse utilization = %.3f, want ~1", fuse.Utilization)
	}
}

// TestSwinOnAcceleratorE checks: ~12 ms, and time/energy distributions that
// closely match the FLOPs distribution (87% vs 89%, Fig. 9).
func TestSwinOnAcceleratorE(t *testing.T) {
	g := nn.MustSwin("Tiny", 150, 512, 512)
	r := mustSim(t, AcceleratorE(), g)
	ms := r.TotalSeconds * 1e3
	if ms < 10.5 || ms > 13.5 {
		t.Errorf("Swin Tiny on E = %.2f ms, paper reports 12", ms)
	}
	flopShare := g.ConvFLOPShare()
	if s := r.ConvTimeShare(); s < flopShare-0.05 || s > flopShare+0.05 {
		t.Errorf("Swin conv time share %.3f should track FLOP share %.3f (Fig. 9)", s, flopShare)
	}
	if s := r.ConvEnergyShare(); s < flopShare-0.05 || s > flopShare+0.05 {
		t.Errorf("Swin conv energy share %.3f should track FLOP share %.3f", s, flopShare)
	}
	// fpn_bottleneck: 63% of time and energy on E (paper), 65% of FLOPs.
	for i := range r.Layers {
		if r.Layers[i].Name == "dec.fpnbottleneck" {
			if ts := r.Layers[i].Seconds / r.TotalSeconds; ts < 0.55 || ts > 0.70 {
				t.Errorf("fpn_bottleneck time share = %.3f, paper reports 0.63", ts)
			}
			if es := r.Layers[i].EnergyPJ / r.TotalEnergyPJ; es < 0.55 || es > 0.70 {
				t.Errorf("fpn_bottleneck energy share = %.3f, paper reports 0.63", es)
			}
		}
	}
}

// TestFig6ParetoStructure checks the design-space structure of Fig. 6 on
// SegFormer ADE B2:
//   - E and G are Pareto-optimal, D is within 1% of the frontier;
//   - every frontier point is one of B/D/E/F/G;
//   - the 1 MB weight-buffer designs A and C are clearly dominated;
//   - the K0=C0=16 family costs >= 1.2x energy per FLOP (paper: 1.4x) at
//     well under half the throughput per area.
func TestFig6ParetoStructure(t *testing.T) {
	g := nn.MustSegFormer("B2", 150, 512, 512)
	type point struct {
		name    string
		energy  float64 // pJ/MAC
		thrArea float64
	}
	points := map[string]point{}
	for _, c := range TableII() {
		r := mustSim(t, c, g)
		points[c.Name] = point{c.Name, r.EnergyPerMAC(), r.ThroughputPerArea(c)}
	}
	dominated := func(p point) bool {
		for _, q := range points {
			if q.name != p.name && q.energy <= p.energy && q.thrArea >= p.thrArea &&
				(q.energy < p.energy || q.thrArea > p.thrArea) {
				return true
			}
		}
		return false
	}
	for _, n := range []string{"E", "G"} {
		if dominated(points[n]) {
			t.Errorf("accelerator %s must be Pareto-optimal (paper Fig. 6)", n)
		}
	}
	// D sits on the frontier in the paper; allow <=1% energy slack here.
	bestEnergy := points["D"].energy
	for _, p := range points {
		if p.thrArea >= points["D"].thrArea && p.energy < bestEnergy {
			bestEnergy = p.energy
		}
	}
	if (points["D"].energy-bestEnergy)/bestEnergy > 0.01 {
		t.Errorf("accelerator D is %.1f%% off the frontier, want within 1%%",
			100*(points["D"].energy-bestEnergy)/bestEnergy)
	}
	allowedFrontier := map[string]bool{"B": true, "D": true, "E": true, "F": true, "G": true}
	for _, p := range points {
		if !dominated(p) && !allowedFrontier[p.name] {
			t.Errorf("accelerator %s on the frontier; paper restricts it to the D/E/G cluster", p.name)
		}
	}
	for _, n := range []string{"A", "C"} {
		if points[n].energy < 1.15*points["E"].energy {
			t.Errorf("accelerator %s energy %.4f should be >= 1.15x of E (big-buffer penalty)",
				n, points[n].energy)
		}
	}
	for _, n := range []string{"H", "I", "J", "K", "L", "M"} {
		if ratio := points[n].energy / points["E"].energy; ratio < 1.2 {
			t.Errorf("K0=16 accelerator %s energy ratio vs E = %.2f, paper reports ~1.4", n, ratio)
		}
		if !dominated(points[n]) {
			t.Errorf("K0=16 accelerator %s must be dominated", n)
		}
	}
}

// TestSegFormerSlightlyFasterOnK016: the paper notes SegFormer's evenly
// divisible channels give ~10% faster execution with K0=C0=16 accelerators.
func TestSegFormerSlightlyFasterOnK016(t *testing.T) {
	g := nn.MustSegFormer("B2", 150, 512, 512)
	e := mustSim(t, AcceleratorE(), g)
	h, _ := ByName("H")
	rh := mustSim(t, h, g)
	if rh.TotalSeconds >= e.TotalSeconds {
		t.Errorf("SegFormer on H (%.2f ms) should be faster than on E (%.2f ms)",
			rh.TotalSeconds*1e3, e.TotalSeconds*1e3)
	}
}

// TestSwinSimilarAcrossVectorWidths: Swin's 49-wide attention dimensions are
// indivisible by 16 and 32 alike, so performance is similar across the two
// families (Section IV-B).
func TestSwinSimilarAcrossVectorWidths(t *testing.T) {
	g := nn.MustSwin("Tiny", 150, 512, 512)
	e := mustSim(t, AcceleratorE(), g)
	h, _ := ByName("H")
	rh := mustSim(t, h, g)
	ratio := rh.TotalSeconds / e.TotalSeconds
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("Swin H/E runtime ratio = %.3f, paper reports similar performance", ratio)
	}
}

// TestSwinAttentionUnderutilization: the 49-channel matmuls utilize 49/64 of
// the vector lanes on both K0=16 and K0=32 (Section IV-B).
func TestSwinAttentionUnderutilization(t *testing.T) {
	g := nn.MustSwin("Tiny", 150, 512, 512)
	for _, name := range []string{"E", "H"} {
		c, _ := ByName(name)
		r := mustSim(t, c, g)
		for i := range r.Layers {
			l := &r.Layers[i]
			if strings.HasSuffix(l.Name, "attn.av") && l.Utilization > 0 {
				if l.Utilization < 0.70 || l.Utilization > 0.80 {
					t.Errorf("%s on %s: utilization %.3f, want ~49/64=0.766", l.Name, name, l.Utilization)
				}
				break
			}
		}
	}
}

// TestFig8FewChannelLayersExpensive: the layers with the highest energy per
// FLOP in SegFormer are the encoder convolutions with few input channels
// (the stage-0 patch embedding with 3 channels, the depthwise MLP convs with
// 1), while Conv2DFuse with 3072 input channels is among the cheapest.
func TestFig8FewChannelLayersExpensive(t *testing.T) {
	r := mustSim(t, AcceleratorE(), nn.MustSegFormer("B2", 150, 512, 512))
	var fuse, patch0, dw float64
	var worst float64
	for i := range r.Layers {
		l := &r.Layers[i]
		if l.MACs == 0 {
			continue
		}
		e := l.EnergyPerMAC()
		if e > worst {
			worst = e
		}
		switch {
		case l.Name == "dec.conv2dfuse":
			fuse = e
		case l.Name == "enc.patchembed0":
			patch0 = e
		case l.Name == "enc.s0.b0.mlp.dwconv":
			dw = e
		}
	}
	if patch0 < 2*fuse {
		t.Errorf("patch embed (3 input channels) energy/MAC %.4f should far exceed Conv2DFuse %.4f", patch0, fuse)
	}
	if dw < 2*fuse {
		t.Errorf("depthwise conv energy/MAC %.4f should far exceed Conv2DFuse %.4f", dw, fuse)
	}
	if fuse > 1.2*minMatrixEnergyPerMAC(r) {
		t.Errorf("Conv2DFuse energy/MAC %.4f should be near the minimum %.4f", fuse, minMatrixEnergyPerMAC(r))
	}
	if worst < 3*fuse {
		t.Errorf("worst layer energy/MAC %.4f should be >= 3x Conv2DFuse's %.4f", worst, fuse)
	}
}

func minMatrixEnergyPerMAC(r *Result) float64 {
	min := 0.0
	for i := range r.Layers {
		if r.Layers[i].MACs == 0 {
			continue
		}
		if e := r.Layers[i].EnergyPerMAC(); min == 0 || e < min {
			min = e
		}
	}
	return min
}

// TestOFAFirstAndLastLayersExpensive: on OFA-ResNet-50 the first (3-channel
// input) and last (single-token classifier) layers have the highest energy
// per FLOP (Section IV-C).
func TestOFAFirstAndLastLayersExpensive(t *testing.T) {
	g := nn.MustResNet50(224, 224, true)
	r := mustSim(t, AcceleratorE(), g)
	energies := map[string]float64{}
	for i := range r.Layers {
		l := &r.Layers[i]
		if l.MACs == 0 {
			continue
		}
		energies[l.Name] = l.EnergyPerMAC()
	}
	mean := r.EnergyPerMAC() // MAC-weighted model average
	if energies["stem.conv"] < 1.5*mean {
		t.Errorf("stem conv energy/MAC %.4f should be well above the mean %.4f", energies["stem.conv"], mean)
	}
	if energies["head.fc"] < 1.5*mean {
		t.Errorf("classifier energy/MAC %.4f should be well above the mean %.4f", energies["head.fc"], mean)
	}
}

// TestResNetEvenDistribution: the paper observes OFA-ResNet-50's time and
// energy are "mostly evenly split among all the convolutions".
func TestResNetEvenDistribution(t *testing.T) {
	r := mustSim(t, AcceleratorE(), nn.MustResNet50(224, 224, true))
	var maxShare float64
	for i := range r.Layers {
		if s := r.Layers[i].Seconds / r.TotalSeconds; s > maxShare {
			maxShare = s
		}
	}
	// The stem (3 input channels, utilization 3/32) is the largest single
	// consumer; everything else is small. The paper calls the distribution
	// "mostly evenly split".
	if maxShare > 0.25 {
		t.Errorf("largest ResNet layer takes %.3f of time; distribution should be mostly even", maxShare)
	}
}

// TestPointwiseLayersFused: non-matrix operators ride the PPU and cost no
// separate execution time or DRAM traffic.
func TestPointwiseLayersFused(t *testing.T) {
	r := mustSim(t, AcceleratorE(), nn.MustSegFormer("B2", 150, 512, 512))
	for i := range r.Layers {
		l := &r.Layers[i]
		if l.Kind.IsMatrix() {
			if l.Fused {
				t.Errorf("matrix layer %s marked fused", l.Name)
			}
			continue
		}
		if !l.Fused || l.Seconds != 0 || l.DRAMBytes != 0 {
			t.Errorf("pointwise layer %s not fused (t=%v dram=%d)", l.Name, l.Seconds, l.DRAMBytes)
		}
	}
}

// TestUtilizationBounds: utilization is in (0, 1] for every matrix layer.
func TestUtilizationBounds(t *testing.T) {
	for _, g := range []*graph.Graph{
		nn.MustSegFormer("B0", 150, 512, 512),
		nn.MustSwin("Tiny", 150, 512, 512),
		nn.MustResNet50(224, 224, true),
	} {
		r := mustSim(t, AcceleratorE(), g)
		for i := range r.Layers {
			l := &r.Layers[i]
			if l.MACs == 0 {
				continue
			}
			if l.Utilization <= 0 || l.Utilization > 1.0+1e-9 {
				t.Errorf("%s/%s utilization = %v", g.Name, l.Name, l.Utilization)
			}
		}
	}
}

// TestSimulateRejectsInvalidConfig checks error propagation.
func TestSimulateRejectsInvalidConfig(t *testing.T) {
	c := AcceleratorE()
	c.NumPE = 0
	if _, err := c.Simulate(nn.MustResNet50(224, 224, true)); err == nil {
		t.Error("invalid config accepted")
	}
}

// Property: doubling a conv's output channels never decreases cycles or
// energy, and total metrics aggregate layer metrics.
func TestSimMonotoneQuick(t *testing.T) {
	c := AcceleratorE()
	f := func(a, b uint8) bool {
		inC := (int(a)%16 + 1) * 8
		outC := (int(b)%16 + 1) * 8
		mk := func(oc int) graph.Layer {
			return graph.Layer{
				Name: "l", Kind: graph.Conv2D,
				InC: inC, OutC: oc, KH: 3, KW: 3, SH: 1, SW: 1,
				InH: 32, InW: 32, OutH: 32, OutW: 32, Groups: 1,
			}
		}
		l1, l2 := mk(outC), mk(outC*2)
		r1 := c.SimulateLayer(&l1)
		r2 := c.SimulateLayer(&l2)
		return r2.Cycles >= r1.Cycles && r2.EnergyPJ > r1.EnergyPJ && r1.EnergyPJ > 0 && r1.Cycles > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestResultAggregation: totals equal the sums over layers.
func TestResultAggregation(t *testing.T) {
	r := mustSim(t, AcceleratorE(), nn.MustResNet50(224, 224, true))
	var sec, pj float64
	var macs, cyc, dram int64
	for i := range r.Layers {
		sec += r.Layers[i].Seconds
		pj += r.Layers[i].EnergyPJ
		macs += r.Layers[i].MACs
		cyc += r.Layers[i].Cycles
		dram += r.Layers[i].DRAMBytes
	}
	if macs != r.TotalMACs || cyc != r.TotalCycles || dram != r.TotalDRAM {
		t.Error("integer totals do not aggregate")
	}
	if d := sec - r.TotalSeconds; d > 1e-12 || d < -1e-12 {
		t.Error("seconds do not aggregate")
	}
	if d := (pj - r.TotalEnergyPJ) / pj; d > 1e-9 || d < -1e-9 {
		t.Error("energy does not aggregate")
	}
	if r.EnergyJ() <= 0 || r.EnergyPerMAC() <= 0 {
		t.Error("derived metrics must be positive")
	}
}
