package prune

import (
	"fmt"
	"reflect"
	"testing"

	"vitdyn/internal/graph"
	"vitdyn/internal/nn"
)

// The reference builders below are the pruning implementation that
// rebuilt every path's graph from scratch with nn.SegFormer / nn.Swin at
// reduced depths and patched it by layer name. ApplySegFormer and
// ApplySwin now copy and patch a compiled full model instead; these
// tests hold the two layer for layer equal, names included.

// referenceApplySegFormer rebuilds the pruned SegFormer graph from scratch.
func referenceApplySegFormer(cfg nn.SegFormerConfig, imgH, imgW int, p SegFormerPath) (*graph.Graph, error) {
	if err := p.Validate(cfg); err != nil {
		return nil, err
	}
	pruned := cfg
	pruned.Depths = p.EncoderBlocks
	g, err := nn.SegFormer(pruned, imgH, imgW)
	if err != nil {
		return nil, err
	}
	g.Name = fmt.Sprintf("%s[%s]", g.Name, p.Label)

	d := cfg.DecoderDim

	// --- Conv2DPred pruning propagates backwards through the decoder. ---
	fuseOut := p.PredInCh
	if pred := g.Find("dec.conv2dpred"); pred != nil {
		pred.InC = p.PredInCh
	}
	if bn := g.Find("dec.fuse.bn"); bn != nil {
		bn.Elems = bn.Elems / d * fuseOut
		bn.Channels = fuseOut
	}
	if relu := g.Find("dec.fuse.relu"); relu != nil {
		relu.Elems = relu.Elems / d * fuseOut
	}

	// --- Conv2DFuse input pruning. ---
	// The fuse convolution reads a trailing-pruned subset of the
	// concatenated per-stage features. The decode linears still execute in
	// full: their outputs also parameterize the kept channels, and (as the
	// paper notes) encoder-side computation cannot be skipped because every
	// encoder stage feeds the next. This matches the paper's Table III
	// accounting (B2f: 60% fewer FLOPs with Conv2DFuse under 25% of them).
	if fuse := g.Find("dec.conv2dfuse"); fuse != nil {
		fuse.InC = p.FuseInCh
		fuse.OutC = fuseOut
	}
	if cat := g.Find("dec.concat"); cat != nil {
		cat.Elems = cat.Elems / (4 * d) * p.FuseInCh
	}

	// --- DecodeLinear0 input channels. ---
	if dl0 := g.Find("dec.linear0"); dl0 != nil && p.DecodeLinear0Ch < dl0.InF {
		dl0.InF = p.DecodeLinear0Ch
	}

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// referenceApplySwin rebuilds the pruned Swin graph from scratch.
func referenceApplySwin(cfg nn.SwinConfig, imgH, imgW int, p SwinPath) (*graph.Graph, error) {
	if err := p.Validate(cfg); err != nil {
		return nil, err
	}
	pruned := cfg
	pruned.Depths[2] = p.Stage2Blocks
	pruned.Depths[3] = p.Stage3Blocks
	g, err := nn.Swin(pruned, imgH, imgW)
	if err != nil {
		return nil, err
	}
	g.Name = fmt.Sprintf("%s[%s]", g.Name, p.Label)

	ch := cfg.DecoderChannels
	if fpn := g.Find("dec.fpnbottleneck"); fpn != nil {
		fpn.InC = p.FPNBottleneckCh
	}
	if cat := g.Find("dec.fuse.concat"); cat != nil {
		cat.Elems = cat.Elems / (4 * ch) * p.FPNBottleneckCh
	}
	// Trailing concat slices come from the deepest levels; drop upsamples of
	// fully pruned levels.
	for s := 3; s >= 1; s-- {
		if p.FPNBottleneckCh <= s*ch {
			name := fmt.Sprintf("dec.fuse.up%d", s)
			keep := g.Layers[:0]
			for i := range g.Layers {
				if g.Layers[i].Name == name {
					continue
				}
				keep = append(keep, g.Layers[i])
			}
			g.Layers = keep
		}
	}

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// assertSameGraph requires identical graphs: name, task, input size and
// every field of every layer, in order.
func assertSameGraph(t *testing.T, label string, want, got *graph.Graph) {
	t.Helper()
	if want.Name != got.Name || want.Task != got.Task || want.InputH != got.InputH || want.InputW != got.InputW {
		t.Fatalf("%s: graph header %q/%q/%dx%d, want %q/%q/%dx%d", label,
			got.Name, got.Task, got.InputH, got.InputW, want.Name, want.Task, want.InputH, want.InputW)
	}
	if len(want.Layers) != len(got.Layers) {
		t.Fatalf("%s: %d layers, want %d", label, len(got.Layers), len(want.Layers))
	}
	for i := range want.Layers {
		if !reflect.DeepEqual(want.Layers[i], got.Layers[i]) {
			t.Fatalf("%s: layer %d = %+v, want %+v", label, i, got.Layers[i], want.Layers[i])
		}
	}
}

// TestSegFormerPlanMatchesRebuild compares every path of several sweeps
// (and Table III) on both datasets' class counts and input sizes.
func TestSegFormerPlanMatchesRebuild(t *testing.T) {
	for _, ds := range []struct{ classes, size int }{{150, 512}, {19, 1024}} {
		cfg, err := nn.SegFormerB("B2", ds.classes)
		if err != nil {
			t.Fatal(err)
		}
		paths := TableIII()
		for _, step := range []int{128, 384, 900} {
			paths = append(paths, SegFormerSweep(cfg, step)...)
		}
		p := FullSegFormerPath(cfg)
		p.Label, p.DecodeLinear0Ch, p.EncoderBlocks = "dl0", 32, [4]int{1, 1, 1, 1}
		paths = append(paths, p)
		for _, p := range paths {
			want, err := referenceApplySegFormer(cfg, ds.size, ds.size, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ApplySegFormer(cfg, ds.size, ds.size, p)
			if err != nil {
				t.Fatal(err)
			}
			assertSameGraph(t, fmt.Sprintf("%d/%s", ds.classes, p.Label), want, got)
		}
	}
}

// TestSwinPlanMatchesRebuild compares every path of several sweeps on
// each Swin variant, including paths that drop fused upsamples.
func TestSwinPlanMatchesRebuild(t *testing.T) {
	for _, v := range []string{"Tiny", "Small", "Base"} {
		cfg, err := nn.SwinVariant(v, 150)
		if err != nil {
			t.Fatal(err)
		}
		var paths []SwinPath
		for _, step := range []int{256, 384, 900} {
			paths = append(paths, SwinSweep(cfg, step)...)
		}
		p := FullSwinPath(cfg)
		p.Label, p.FPNBottleneckCh = "one-level", 300
		paths = append(paths, p)
		for _, p := range paths {
			want, err := referenceApplySwin(cfg, 512, 512, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ApplySwin(cfg, 512, 512, p)
			if err != nil {
				t.Fatal(err)
			}
			assertSameGraph(t, v+"/"+p.Label, want, got)
		}
	}
}

// TestPlanErrorsMatchRebuild: invalid paths and input sizes fail the same
// way on both construction paths.
func TestPlanErrorsMatchRebuild(t *testing.T) {
	cfg, err := nn.SegFormerB("B2", 150)
	if err != nil {
		t.Fatal(err)
	}
	bad := FullSegFormerPath(cfg)
	bad.FuseInCh = 0
	for _, size := range []int{512, 500} {
		_, werr := referenceApplySegFormer(cfg, size, size, bad)
		_, gerr := ApplySegFormer(cfg, size, size, bad)
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Errorf("size %d: error %v, want %v", size, gerr, werr)
		}
	}
	scfg, err := nn.SwinVariant("Tiny", 150)
	if err != nil {
		t.Fatal(err)
	}
	sbad := FullSwinPath(scfg)
	sbad.Stage2Blocks = 9
	_, werr := referenceApplySwin(scfg, 512, 512, sbad)
	_, gerr := ApplySwin(scfg, 512, 512, sbad)
	if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
		t.Errorf("swin: error %v, want %v", gerr, werr)
	}
}
