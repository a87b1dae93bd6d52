package nn

import (
	"fmt"
	"strconv"

	"vitdyn/internal/graph"
)

// SwinConfig describes a Swin Transformer encoder variant paired with the
// UPerNet decode head, as used in the paper's segmentation case studies.
type SwinConfig struct {
	Variant    string // "Tiny", "Small", "Base"
	EmbedDim   int    // stage-0 token width (doubles each stage)
	Depths     [4]int
	NumHeads   [4]int
	WindowSize int
	MLPRatio   int
	// UPerNet decode head.
	DecoderChannels int // FPN channel width (512 in mmseg default)
	PoolScales      []int
	NumClasses      int
}

// SwinVariant returns the standard Tiny/Small/Base configuration with the
// UPerNet head sized for the given class count.
func SwinVariant(variant string, numClasses int) (SwinConfig, error) {
	cfg := SwinConfig{
		Variant:         variant,
		WindowSize:      7,
		MLPRatio:        4,
		DecoderChannels: 512,
		PoolScales:      []int{1, 2, 3, 6},
		NumClasses:      numClasses,
	}
	switch variant {
	case "Tiny":
		cfg.EmbedDim = 96
		cfg.Depths = [4]int{2, 2, 6, 2}
		cfg.NumHeads = [4]int{3, 6, 12, 24}
	case "Small":
		cfg.EmbedDim = 96
		cfg.Depths = [4]int{2, 2, 18, 2}
		cfg.NumHeads = [4]int{3, 6, 12, 24}
	case "Base":
		cfg.EmbedDim = 128
		cfg.Depths = [4]int{2, 2, 18, 2}
		cfg.NumHeads = [4]int{4, 8, 16, 32}
	default:
		return SwinConfig{}, fmt.Errorf("nn: unknown Swin variant %q", variant)
	}
	return cfg, nil
}

// StageDims returns the per-stage token widths (C, 2C, 4C, 8C).
func (c SwinConfig) StageDims() [4]int {
	return [4]int{c.EmbedDim, 2 * c.EmbedDim, 4 * c.EmbedDim, 8 * c.EmbedDim}
}

// Swin builds the full Swin + UPerNet graph for imgH x imgW input.
//
// Layer naming convention:
//
//	enc.patchembed               4x4 stride-4 patch embedding conv
//	enc.s{S}.b{B}.attn.*         windowed attention (window tokens = 49)
//	enc.s{S}.b{B}.mlp.*          MLP sub-layers
//	enc.merge{S}                 patch merging into stage S
//	dec.psp.*                    pyramid pooling module on stage-3 output
//	dec.lateral{S}, dec.fpn{S}   UPerNet lateral 1x1 and FPN 3x3 convs
//	dec.fpnbottleneck            the dominant 3x3 fusion convolution
//	dec.clshead                  classifier conv
func Swin(cfg SwinConfig, imgH, imgW int) (*graph.Graph, error) {
	if imgH <= 0 || imgW <= 0 {
		return nil, fmt.Errorf("nn: invalid input size %dx%d", imgH, imgW)
	}
	if imgH%32 != 0 || imgW%32 != 0 {
		return nil, fmt.Errorf("nn: Swin input must be divisible by 32, got %dx%d", imgH, imgW)
	}
	g := &graph.Graph{
		Name:   "Swin-" + cfg.Variant,
		Task:   "semantic-segmentation",
		InputH: imgH,
		InputW: imgW,
	}

	dims := cfg.StageDims()
	var sh, sw [4]int
	for s := 0; s < 4; s++ {
		sh[s] = imgH >> (2 + s)
		sw[s] = imgW >> (2 + s)
	}

	// Patch embedding: 4x4 stride-4 convolution (a convolution in every
	// implementation, and the only conv in the Swin encoder).
	g.Add(graph.Layer{
		Name: "enc.patchembed", Kind: graph.Conv2D,
		Module: "encoder", Stage: 0, Block: -1,
		InC: 3, OutC: dims[0], KH: 4, KW: 4, SH: 4, SW: 4,
		InH: imgH, InW: imgW, OutH: sh[0], OutW: sw[0], Groups: 1, HasBias: true,
	})
	g.Add(graph.Layer{
		Name: "enc.patchembed.norm", Kind: graph.LayerNorm,
		Module: "encoder", Stage: 0, Block: -1,
		Elems: sh[0] * sw[0] * dims[0], Channels: dims[0],
	})

	for s := 0; s < 4; s++ {
		if s > 0 {
			// Patch merging: concatenate 2x2 neighbourhoods (4C) and
			// project to 2C with a linear layer.
			prevTokens := sh[s] * sw[s] // after 2x2 grouping
			g.Add(graph.Layer{
				Name: "enc.merge" + strconv.Itoa(s), Kind: graph.Linear,
				Module: "encoder", Stage: s, Block: -1,
				Tokens: prevTokens, InF: 4 * dims[s-1], OutF: dims[s],
			})
			g.Add(graph.Layer{
				Name: "enc.merge" + strconv.Itoa(s) + ".norm", Kind: graph.LayerNorm,
				Module: "encoder", Stage: s, Block: -1,
				Elems: prevTokens * 4 * dims[s-1], Channels: 4 * dims[s-1],
			})
		}
		for b := 0; b < cfg.Depths[s]; b++ {
			addSwinBlock(g, cfg, s, b, sh[s], sw[s], dims[s])
		}
	}
	// Per-stage output norms feeding the decoder.
	for s := 0; s < 4; s++ {
		g.Add(graph.Layer{
			Name: "enc.outnorm" + strconv.Itoa(s), Kind: graph.LayerNorm,
			Module: "encoder", Stage: s, Block: -1,
			Elems: sh[s] * sw[s] * dims[s], Channels: dims[s],
		})
	}

	addUPerNetDecoder(g, cfg, dims, sh, sw)

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// addSwinBlock emits one (shifted-)window attention block. Window
// partitioning pads H and W up to multiples of the window size, which is why
// attention matrices carry the famous 49-wide dimensions that underutilize
// vector hardware (Section IV-B of the paper). Shifted blocks (odd b) incur
// two extra roll operations; both variants partition and reverse windows.
func addSwinBlock(g *graph.Graph, cfg SwinConfig, s, b, h, w, dim int) {
	ws := cfg.WindowSize
	heads := cfg.NumHeads[s]
	headDim := dim / heads
	nWinH := ceilDiv(h, ws)
	nWinW := ceilDiv(w, ws)
	nWin := nWinH * nWinW
	winTokens := ws * ws // 49
	tokens := nWin * winTokens
	shifted := b%2 == 1

	add := func(leaf string, l graph.Layer) {
		l.Name = blockName("enc", s, b, leaf)
		l.Module = "encoder"
		l.Stage = s
		l.Block = b
		g.Add(l)
	}

	add("attn.norm", graph.Layer{Kind: graph.LayerNorm, Elems: tokens * dim, Channels: dim})
	if shifted {
		add("attn.roll", graph.Layer{Kind: graph.Reshape, Elems: tokens * dim})
	}
	add("attn.partition", graph.Layer{Kind: graph.Reshape, Elems: tokens * dim})
	add("attn.qkv", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: dim, OutF: 3 * dim})
	add("attn.qk", graph.Layer{Kind: graph.MatMul, Batch: nWin * heads, M: winTokens, K: headDim, N: winTokens})
	// Relative position bias is added to every attention map; shifted
	// windows additionally apply the cyclic-shift mask. Both are separate
	// elementwise kernels in the reference implementation.
	add("attn.bias", graph.Layer{Kind: graph.Add, Elems: nWin * heads * winTokens * winTokens})
	if shifted {
		add("attn.mask", graph.Layer{Kind: graph.Add, Elems: nWin * heads * winTokens * winTokens})
	}
	add("attn.softmax", graph.Layer{Kind: graph.Softmax, Elems: nWin * heads * winTokens * winTokens})
	add("attn.av", graph.Layer{Kind: graph.MatMul, Batch: nWin * heads, M: winTokens, K: winTokens, N: headDim})
	add("attn.proj", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: dim, OutF: dim})
	add("attn.reverse", graph.Layer{Kind: graph.Reshape, Elems: tokens * dim})
	if shifted {
		add("attn.unroll", graph.Layer{Kind: graph.Reshape, Elems: tokens * dim})
	}
	add("attn.residual", graph.Layer{Kind: graph.Add, Elems: h * w * dim})

	hidden := dim * cfg.MLPRatio
	add("mlp.norm", graph.Layer{Kind: graph.LayerNorm, Elems: h * w * dim, Channels: dim})
	add("mlp.fc1", graph.Layer{Kind: graph.Linear, Tokens: h * w, InF: dim, OutF: hidden})
	add("mlp.act", graph.Layer{Kind: graph.GELU, Elems: h * w * hidden})
	add("mlp.fc2", graph.Layer{Kind: graph.Linear, Tokens: h * w, InF: hidden, OutF: dim})
	add("mlp.residual", graph.Layer{Kind: graph.Add, Elems: h * w * dim})
}

// addUPerNetDecoder emits the UPerNet head: PSP module on the last stage,
// lateral 1x1 convs, top-down FPN 3x3 convs, the fpn_bottleneck fusion conv
// (65% of Swin-Tiny FLOPs in the paper), and the classifier.
func addUPerNetDecoder(g *graph.Graph, cfg SwinConfig, dims, sh, sw [4]int) {
	ch := cfg.DecoderChannels
	h3, w3 := sh[3], sw[3]
	h0, w0 := sh[0], sw[0]

	decS := func(nm string, stage int, l graph.Layer) {
		l.Name = "dec." + nm
		l.Module = "decoder"
		l.Stage = stage
		l.Block = -1
		g.Add(l)
	}
	dec := func(nm string, l graph.Layer) { decS(nm, -1, l) }

	// --- PSP (pyramid pooling) on stage-3 output ---
	pooledPixels := 0
	for _, sc := range cfg.PoolScales {
		pooledPixels += sc * sc
	}
	for _, sc := range cfg.PoolScales {
		dec("psp.pool"+strconv.Itoa(sc), graph.Layer{Kind: graph.Pool, Elems: h3 * w3 * dims[3]})
		dec("psp.conv"+strconv.Itoa(sc), graph.Layer{
			Kind: graph.Conv2D,
			InC:  dims[3], OutC: ch, KH: 1, KW: 1, SH: 1, SW: 1,
			InH: sc, InW: sc, OutH: sc, OutW: sc, Groups: 1,
		})
		dec("psp.bn"+strconv.Itoa(sc), graph.Layer{Kind: graph.BatchNorm, Elems: sc * sc * ch, Channels: ch})
		dec("psp.up"+strconv.Itoa(sc), graph.Layer{Kind: graph.Interpolate, Elems: h3 * w3 * ch})
	}
	pspCat := dims[3] + len(cfg.PoolScales)*ch
	dec("psp.concat", graph.Layer{Kind: graph.Concat, Elems: h3 * w3 * pspCat})
	dec("psp.bottleneck", graph.Layer{
		Kind: graph.Conv2D,
		InC:  pspCat, OutC: ch, KH: 3, KW: 3, SH: 1, SW: 1,
		InH: h3, InW: w3, OutH: h3, OutW: w3, Groups: 1,
	})
	dec("psp.bottleneck.bn", graph.Layer{Kind: graph.BatchNorm, Elems: h3 * w3 * ch, Channels: ch})
	dec("psp.bottleneck.relu", graph.Layer{Kind: graph.ReLU, Elems: h3 * w3 * ch})

	// --- Lateral convs + top-down pathway + FPN convs (stages 0..2) ---
	for s := 0; s < 3; s++ {
		decS("lateral"+strconv.Itoa(s), s, graph.Layer{
			Kind: graph.Conv2D,
			InC:  dims[s], OutC: ch, KH: 1, KW: 1, SH: 1, SW: 1,
			InH: sh[s], InW: sw[s], OutH: sh[s], OutW: sw[s], Groups: 1,
		})
		decS("lateral"+strconv.Itoa(s)+".bn", s, graph.Layer{Kind: graph.BatchNorm, Elems: sh[s] * sw[s] * ch, Channels: ch})
		decS("topdown"+strconv.Itoa(s)+".up", s, graph.Layer{Kind: graph.Interpolate, Elems: sh[s] * sw[s] * ch})
		decS("topdown"+strconv.Itoa(s)+".add", s, graph.Layer{Kind: graph.Add, Elems: sh[s] * sw[s] * ch})
		decS("fpn"+strconv.Itoa(s), s, graph.Layer{
			Kind: graph.Conv2D,
			InC:  ch, OutC: ch, KH: 3, KW: 3, SH: 1, SW: 1,
			InH: sh[s], InW: sw[s], OutH: sh[s], OutW: sw[s], Groups: 1,
		})
		decS("fpn"+strconv.Itoa(s)+".bn", s, graph.Layer{Kind: graph.BatchNorm, Elems: sh[s] * sw[s] * ch, Channels: ch})
		decS("fpn"+strconv.Itoa(s)+".relu", s, graph.Layer{Kind: graph.ReLU, Elems: sh[s] * sw[s] * ch})
	}

	// --- Fuse all levels at stage-0 resolution ---
	for s := 1; s < 4; s++ {
		decS("fuse.up"+strconv.Itoa(s), s, graph.Layer{Kind: graph.Interpolate, Elems: h0 * w0 * ch})
	}
	dec("fuse.concat", graph.Layer{Kind: graph.Concat, Elems: h0 * w0 * 4 * ch})
	dec("fpnbottleneck", graph.Layer{
		Kind: graph.Conv2D,
		InC:  4 * ch, OutC: ch, KH: 3, KW: 3, SH: 1, SW: 1,
		InH: h0, InW: w0, OutH: h0, OutW: w0, Groups: 1,
	})
	dec("fpnbottleneck.bn", graph.Layer{Kind: graph.BatchNorm, Elems: h0 * w0 * ch, Channels: ch})
	dec("fpnbottleneck.relu", graph.Layer{Kind: graph.ReLU, Elems: h0 * w0 * ch})
	dec("clshead", graph.Layer{
		Kind: graph.Conv2D,
		InC:  ch, OutC: cfg.NumClasses, KH: 1, KW: 1, SH: 1, SW: 1,
		InH: h0, InW: w0, OutH: h0, OutW: w0, Groups: 1, HasBias: true,
	})
	dec("upsample.final", graph.Layer{Kind: graph.Interpolate, Elems: h0 * w0 * cfg.NumClasses})
}

// MustSwin builds a standard Swin variant or panics.
func MustSwin(variant string, numClasses, imgH, imgW int) *graph.Graph {
	cfg, err := SwinVariant(variant, numClasses)
	if err != nil {
		panic(err)
	}
	g, err := Swin(cfg, imgH, imgW)
	if err != nil {
		panic(err)
	}
	return g
}
