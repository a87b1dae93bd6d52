// Package prune implements the paper's alternative-execution-path machinery
// (Section V): bypassing encoder blocks and reducing input channels of the
// critical decoder layers in pretrained SegFormer and Swin models, with
// skipped computation propagated backwards through the decoder exactly as
// the paper describes (Section V-A).
package prune

import (
	"fmt"
	"strconv"

	"vitdyn/internal/graph"
	"vitdyn/internal/lru"
	"vitdyn/internal/nn"
)

// SegFormerPath is one SegFormer execution-path configuration: how many
// encoder blocks run in each stage and how many input channels the three
// critical decoder layers consume. A zero channel field means "unpruned".
type SegFormerPath struct {
	Label string
	// EncoderBlocks kept per stage; the paper bypasses trailing blocks.
	EncoderBlocks [4]int
	// FuseInCh is the Conv2DFuse input-channel count (<= 4*decoderDim).
	FuseInCh int
	// PredInCh is the Conv2DPred input-channel count (<= decoderDim).
	PredInCh int
	// DecodeLinear0Ch is the DecodeLinear0 input-channel count (<= stage-0
	// width). Reducing it cannot skip earlier computation (stage-0 output
	// also feeds stage 1), but it still shrinks the decoder layer itself.
	DecodeLinear0Ch int
}

// FullSegFormerPath returns the unpruned configuration for a variant.
func FullSegFormerPath(cfg nn.SegFormerConfig) SegFormerPath {
	return SegFormerPath{
		Label:           cfg.Variant,
		EncoderBlocks:   cfg.Depths,
		FuseInCh:        4 * cfg.DecoderDim,
		PredInCh:        cfg.DecoderDim,
		DecodeLinear0Ch: cfg.EmbedDims[0],
	}
}

// Validate checks the path against its base configuration.
func (p SegFormerPath) Validate(cfg nn.SegFormerConfig) error {
	for s := 0; s < 4; s++ {
		if p.EncoderBlocks[s] < 1 || p.EncoderBlocks[s] > cfg.Depths[s] {
			return fmt.Errorf("prune: stage %d blocks %d out of range 1..%d", s, p.EncoderBlocks[s], cfg.Depths[s])
		}
	}
	if p.FuseInCh < 1 || p.FuseInCh > 4*cfg.DecoderDim {
		return fmt.Errorf("prune: fuse channels %d out of range 1..%d", p.FuseInCh, 4*cfg.DecoderDim)
	}
	if p.PredInCh < 1 || p.PredInCh > cfg.DecoderDim {
		return fmt.Errorf("prune: pred channels %d out of range 1..%d", p.PredInCh, cfg.DecoderDim)
	}
	if p.DecodeLinear0Ch < 1 || p.DecodeLinear0Ch > cfg.EmbedDims[0] {
		return fmt.Errorf("prune: DecodeLinear0 channels %d out of range 1..%d", p.DecodeLinear0Ch, cfg.EmbedDims[0])
	}
	return nil
}

// ApplySegFormer builds the pruned SegFormer graph for the path: the
// compiled full model (see CompileSegFormer) copied and patched by the
// path's plan. An invalid path fails before the model is compiled.
func ApplySegFormer(cfg nn.SegFormerConfig, imgH, imgW int, p SegFormerPath) (*graph.Graph, error) {
	if err := p.Validate(cfg); err != nil {
		return nil, err
	}
	t, err := CompileSegFormer(cfg, imgH, imgW)
	if err != nil {
		return nil, err
	}
	plan, err := t.Plan(p)
	if err != nil {
		return nil, err
	}
	return plan.Graph(), nil
}

// SegFormerTemplate is a full SegFormer compiled for pricing its pruning
// paths: the graph template plus the positions of the six decoder layers
// a path can patch.
type SegFormerTemplate struct {
	cfg                                   nn.SegFormerConfig
	t                                     *graph.Template
	linear0, concat, fuse, bn, relu, pred int
}

// CompileSegFormer returns the compiled full model for cfg at imgH x imgW,
// building it on first use and caching it for later calls.
func CompileSegFormer(cfg nn.SegFormerConfig, imgH, imgW int) (*SegFormerTemplate, error) {
	key := fmt.Sprintf("segformer|%v|%dx%d", cfg, imgH, imgW)
	t, err := templates.GetOrCompute(key, nil, func() (any, error) {
		g, err := nn.SegFormer(cfg, imgH, imgW)
		if err != nil {
			return nil, err
		}
		gt, err := graph.Compile(g)
		if err != nil {
			return nil, err
		}
		st := &SegFormerTemplate{cfg: cfg, t: gt}
		for _, f := range []struct {
			pos  *int
			name string
		}{
			{&st.linear0, "dec.linear0"}, {&st.concat, "dec.concat"}, {&st.fuse, "dec.conv2dfuse"},
			{&st.bn, "dec.fuse.bn"}, {&st.relu, "dec.fuse.relu"}, {&st.pred, "dec.conv2dpred"},
		} {
			if *f.pos, err = layerPos(gt, f.name); err != nil {
				return nil, err
			}
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	return t.(*SegFormerTemplate), nil
}

// Plan derives the path's plan over the full model. Backward propagation
// of skipped computation follows Section V-A:
//
//   - Bypassed encoder blocks disappear entirely (the paper bypasses the
//     trailing blocks of a stage; which blocks are removed does not change
//     the cost model).
//   - Conv2DFuse input channels are pruned from the end of the concatenated
//     per-stage features. Which channels are removed does not matter for
//     accuracy (the paper tested first/last/smallest), and encoder-side
//     computation cannot be skipped because every encoder stage feeds the
//     next; the decode linears keep running in full, matching the paper's
//     Table III FLOPs accounting (B2f: 60% fewer FLOPs with Conv2DFuse
//     under 25% of them).
//   - Conv2DPred input channels propagate backwards through the decoder
//     (ReLU, BatchNorm and Conv2DFuse outputs shrink with them), since
//     decoder layers have a single consumer.
//   - DecodeLinear0 input channels shrink the decoder layer itself only
//     (stage-0 output also feeds stage 1).
func (st *SegFormerTemplate) Plan(p SegFormerPath) (*graph.Plan, error) {
	if err := p.Validate(st.cfg); err != nil {
		return nil, err
	}
	d := st.cfg.DecoderDim
	fuseOut := p.PredInCh
	var buf [6]graph.Patch
	patches := patchIfChanged(st.t, buf[:0], st.pred, func(l *graph.Layer) { l.InC = p.PredInCh })
	patches = patchIfChanged(st.t, patches, st.bn, func(l *graph.Layer) {
		l.Elems = l.Elems / d * fuseOut
		l.Channels = fuseOut
	})
	patches = patchIfChanged(st.t, patches, st.relu, func(l *graph.Layer) { l.Elems = l.Elems / d * fuseOut })
	patches = patchIfChanged(st.t, patches, st.fuse, func(l *graph.Layer) {
		l.InC = p.FuseInCh
		l.OutC = fuseOut
	})
	patches = patchIfChanged(st.t, patches, st.concat, func(l *graph.Layer) { l.Elems = l.Elems / (4 * d) * p.FuseInCh })
	patches = patchIfChanged(st.t, patches, st.linear0, func(l *graph.Layer) { l.InF = min(l.InF, p.DecodeLinear0Ch) })
	return st.t.Plan(st.t.Name()+"["+p.Label+"]", p.EncoderBlocks[:], patches)
}

// templates caches compiled full models by configuration and input size.
var templates = lru.New[string, any](64, func(k string) uint64 { return lru.HashString(lru.HashSeed, k) })

// layerPos resolves a layer a path patches to its template position.
func layerPos(t *graph.Template, name string) (int, error) {
	i, ok := t.Pos(name)
	if !ok {
		return 0, fmt.Errorf("prune: model %q has no layer %q", t.Name(), name)
	}
	return i, nil
}

// patchIfChanged appends a patch replacing the template layer at pos with
// a copy modified by edit — unless edit leaves it unchanged, so a full
// path carries no patches at all.
func patchIfChanged(t *graph.Template, patches []graph.Patch, pos int, edit func(*graph.Layer)) []graph.Patch {
	l := *t.Layer(pos)
	edit(&l)
	if l == *t.Layer(pos) {
		return patches
	}
	return append(patches, graph.Patch{Pos: pos, Layer: l})
}

// SwinPath is a Swin execution-path configuration: blocks kept in stages 2
// and 3 (the deep stages the paper bypasses) and the fpn_bottleneck input
// channel count.
type SwinPath struct {
	Label           string
	Stage2Blocks    int
	Stage3Blocks    int
	FPNBottleneckCh int // <= 4*decoderChannels
}

// FullSwinPath returns the unpruned configuration.
func FullSwinPath(cfg nn.SwinConfig) SwinPath {
	return SwinPath{
		Label:           cfg.Variant,
		Stage2Blocks:    cfg.Depths[2],
		Stage3Blocks:    cfg.Depths[3],
		FPNBottleneckCh: 4 * cfg.DecoderChannels,
	}
}

// Validate checks the path against its base configuration.
func (p SwinPath) Validate(cfg nn.SwinConfig) error {
	if p.Stage2Blocks < 1 || p.Stage2Blocks > cfg.Depths[2] {
		return fmt.Errorf("prune: stage-2 blocks %d out of range 1..%d", p.Stage2Blocks, cfg.Depths[2])
	}
	if p.Stage3Blocks < 1 || p.Stage3Blocks > cfg.Depths[3] {
		return fmt.Errorf("prune: stage-3 blocks %d out of range 1..%d", p.Stage3Blocks, cfg.Depths[3])
	}
	if p.FPNBottleneckCh < 1 || p.FPNBottleneckCh > 4*cfg.DecoderChannels {
		return fmt.Errorf("prune: fpn channels %d out of range 1..%d", p.FPNBottleneckCh, 4*cfg.DecoderChannels)
	}
	return nil
}

// ApplySwin builds the pruned Swin graph: the compiled full model (see
// CompileSwin) copied and patched by the path's plan. An invalid path
// fails before the model is compiled.
func ApplySwin(cfg nn.SwinConfig, imgH, imgW int, p SwinPath) (*graph.Graph, error) {
	if err := p.Validate(cfg); err != nil {
		return nil, err
	}
	t, err := CompileSwin(cfg, imgH, imgW)
	if err != nil {
		return nil, err
	}
	plan, err := t.Plan(p)
	if err != nil {
		return nil, err
	}
	return plan.Graph(), nil
}

// SwinTemplate is a full Swin + UPerNet model compiled for pricing its
// pruning paths: the graph template plus the positions of the fusion
// layers a path can patch or drop.
type SwinTemplate struct {
	cfg          nn.SwinConfig
	t            *graph.Template
	fuseUp       [4]int // fuseUp[s]: dec.fuse.up{s}, s = 1..3
	concat, fpnb int
}

// CompileSwin returns the compiled full model for cfg at imgH x imgW,
// building it on first use and caching it for later calls.
func CompileSwin(cfg nn.SwinConfig, imgH, imgW int) (*SwinTemplate, error) {
	key := fmt.Sprintf("swin|%v|%dx%d", cfg, imgH, imgW)
	t, err := templates.GetOrCompute(key, nil, func() (any, error) {
		g, err := nn.Swin(cfg, imgH, imgW)
		if err != nil {
			return nil, err
		}
		gt, err := graph.Compile(g)
		if err != nil {
			return nil, err
		}
		st := &SwinTemplate{cfg: cfg, t: gt}
		for s := 1; s < 4; s++ {
			if st.fuseUp[s], err = layerPos(gt, "dec.fuse.up"+strconv.Itoa(s)); err != nil {
				return nil, err
			}
		}
		if st.concat, err = layerPos(gt, "dec.fuse.concat"); err != nil {
			return nil, err
		}
		if st.fpnb, err = layerPos(gt, "dec.fpnbottleneck"); err != nil {
			return nil, err
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	return t.(*SwinTemplate), nil
}

// Plan derives the path's plan over the full model. Pruned fpn_bottleneck
// input channels remove trailing slices of the concatenated FPN levels; a
// fully removed level drops its upsample (the FPN convs still run — their
// outputs feed the multi-scale auxiliary paths).
func (st *SwinTemplate) Plan(p SwinPath) (*graph.Plan, error) {
	if err := p.Validate(st.cfg); err != nil {
		return nil, err
	}
	ch := st.cfg.DecoderChannels
	var buf [5]graph.Patch
	patches := patchIfChanged(st.t, buf[:0], st.fpnb, func(l *graph.Layer) { l.InC = p.FPNBottleneckCh })
	patches = patchIfChanged(st.t, patches, st.concat, func(l *graph.Layer) { l.Elems = l.Elems / (4 * ch) * p.FPNBottleneckCh })
	// Trailing concat slices come from the deepest levels; drop upsamples
	// of fully pruned levels.
	for s := 3; s >= 1; s-- {
		if p.FPNBottleneckCh <= s*ch {
			patches = append(patches, graph.Patch{Pos: st.fuseUp[s], Drop: true})
		}
	}
	keep := [4]int{st.cfg.Depths[0], st.cfg.Depths[1], p.Stage2Blocks, p.Stage3Blocks}
	return st.t.Plan(st.t.Name()+"["+p.Label+"]", keep[:], patches)
}

// Default channel steps of the pruning sweeps, used for a step <= 0.
const (
	DefaultSegFormerStep = 128
	DefaultSwinStep      = 256
)

// SegFormerSweepSeq enumerates the joint sweep the paper explores for
// Fig. 10 — trailing-block bypass per stage combined with
// Conv2DFuse/Conv2DPred channel reduction — as a push generator, so the
// streaming catalog pipeline consumes configurations one at a time
// without materializing the sweep. Channel counts step in units of step
// (the paper prunes in vector-width multiples). Enumeration order is
// deterministic; the generator stops when yield returns false.
func SegFormerSweepSeq(cfg nn.SegFormerConfig, step int) func(yield func(SegFormerPath) bool) {
	if step <= 0 {
		step = DefaultSegFormerStep
	}
	return func(yield func(SegFormerPath) bool) {
		full := FullSegFormerPath(cfg)
		blockChoices := [][4]int{full.EncoderBlocks}
		// Bypass up to one trailing block in each of stages 0-2 and up to two in
		// the deepest-redundancy stage 2 (the combinations Table III exercises).
		for _, d0 := range []int{0, 1} {
			for _, d1 := range []int{0, 1} {
				for _, d2 := range []int{0, 1} {
					if d0 == 0 && d1 == 0 && d2 == 0 {
						continue
					}
					b := full.EncoderBlocks
					b[0] -= d0
					b[1] -= d1
					b[2] -= d2
					if b[0] >= 1 && b[1] >= 1 && b[2] >= 1 {
						blockChoices = append(blockChoices, b)
					}
				}
			}
		}
		for _, blocks := range blockChoices {
			for fuse := 4 * cfg.DecoderDim; fuse >= cfg.DecoderDim/2; fuse -= step {
				for _, pred := range []int{cfg.DecoderDim, cfg.DecoderDim - 32, cfg.DecoderDim - 64} {
					p := SegFormerPath{
						Label:           fmt.Sprintf("b%d%d%d%d-f%d-p%d", blocks[0], blocks[1], blocks[2], blocks[3], fuse, pred),
						EncoderBlocks:   blocks,
						FuseInCh:        fuse,
						PredInCh:        pred,
						DecodeLinear0Ch: cfg.EmbedDims[0],
					}
					if p.Validate(cfg) == nil && !yield(p) {
						return
					}
				}
			}
		}
	}
}

// SegFormerSweep materializes SegFormerSweepSeq into a slice, for callers
// that need the whole configuration set at once.
func SegFormerSweep(cfg nn.SegFormerConfig, step int) []SegFormerPath {
	var out []SegFormerPath
	for p := range SegFormerSweepSeq(cfg, step) {
		out = append(out, p)
	}
	return out
}

// SwinSweepSeq enumerates stage-2/3 block bypass with fpn channel
// reduction as a push generator (see SegFormerSweepSeq).
func SwinSweepSeq(cfg nn.SwinConfig, step int) func(yield func(SwinPath) bool) {
	if step <= 0 {
		step = DefaultSwinStep
	}
	return func(yield func(SwinPath) bool) {
		for s2 := cfg.Depths[2]; s2 >= cfg.Depths[2]-3 && s2 >= 1; s2-- {
			for s3 := cfg.Depths[3]; s3 >= 1; s3-- {
				for fpn := 4 * cfg.DecoderChannels; fpn >= 2*cfg.DecoderChannels; fpn -= step {
					p := SwinPath{
						Label:           fmt.Sprintf("s2_%d-s3_%d-f%d", s2, s3, fpn),
						Stage2Blocks:    s2,
						Stage3Blocks:    s3,
						FPNBottleneckCh: fpn,
					}
					if p.Validate(cfg) == nil && !yield(p) {
						return
					}
				}
			}
		}
	}
}

// SwinSweep materializes SwinSweepSeq into a slice.
func SwinSweep(cfg nn.SwinConfig, step int) []SwinPath {
	var out []SwinPath
	for p := range SwinSweepSeq(cfg, step) {
		out = append(out, p)
	}
	return out
}

// TableIII returns the paper's named SegFormer ADE B2 configurations
// (Table III), from the full model B2 down to B2f.
func TableIII() []SegFormerPath {
	mk := func(label string, blocks [4]int, fuse int) SegFormerPath {
		return SegFormerPath{
			Label:           label,
			EncoderBlocks:   blocks,
			FuseInCh:        fuse,
			PredInCh:        768,
			DecodeLinear0Ch: 64,
		}
	}
	return []SegFormerPath{
		mk("B2", [4]int{3, 4, 6, 3}, 3072),
		mk("B2a", [4]int{3, 4, 6, 3}, 1920),
		mk("B2b", [4]int{3, 4, 6, 3}, 1664),
		mk("B2c", [4]int{2, 4, 6, 3}, 1408),
		mk("B2d", [4]int{2, 3, 6, 3}, 1024),
		mk("B2e", [4]int{2, 3, 5, 3}, 896),
		mk("B2f", [4]int{2, 3, 5, 3}, 512),
	}
}
