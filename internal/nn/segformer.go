package nn

import (
	"fmt"
	"strconv"

	"vitdyn/internal/graph"
)

// SegFormerConfig describes one Mix Transformer (MiT) encoder variant plus
// the all-MLP decode head, following the SegFormer paper's B0..B5 family.
type SegFormerConfig struct {
	Variant    string // "B0".."B5"
	EmbedDims  [4]int // per-stage token width
	Depths     [4]int // encoder blocks per stage
	NumHeads   [4]int
	SRRatios   [4]int // spatial-reduction ratio of efficient self-attention
	MLPRatio   int
	DecoderDim int // all-MLP decode head embedding dim
	NumClasses int
}

// SegFormerB returns the standard configuration for a MiT-Bx variant with
// the given number of output classes (150 for ADE20K, 19 for Cityscapes).
func SegFormerB(variant string, numClasses int) (SegFormerConfig, error) {
	base := SegFormerConfig{
		Variant:    variant,
		NumHeads:   [4]int{1, 2, 5, 8},
		SRRatios:   [4]int{8, 4, 2, 1},
		MLPRatio:   4,
		NumClasses: numClasses,
	}
	switch variant {
	case "B0":
		base.EmbedDims = [4]int{32, 64, 160, 256}
		base.Depths = [4]int{2, 2, 2, 2}
		base.DecoderDim = 256
	case "B1":
		base.EmbedDims = [4]int{64, 128, 320, 512}
		base.Depths = [4]int{2, 2, 2, 2}
		base.DecoderDim = 256
	case "B2":
		base.EmbedDims = [4]int{64, 128, 320, 512}
		base.Depths = [4]int{3, 4, 6, 3}
		base.DecoderDim = 768
	case "B3":
		base.EmbedDims = [4]int{64, 128, 320, 512}
		base.Depths = [4]int{3, 4, 18, 3}
		base.DecoderDim = 768
	case "B4":
		base.EmbedDims = [4]int{64, 128, 320, 512}
		base.Depths = [4]int{3, 8, 27, 3}
		base.DecoderDim = 768
	case "B5":
		base.EmbedDims = [4]int{64, 128, 320, 512}
		base.Depths = [4]int{3, 6, 40, 3}
		base.DecoderDim = 768
	default:
		return SegFormerConfig{}, fmt.Errorf("nn: unknown SegFormer variant %q", variant)
	}
	return base, nil
}

// SegFormer builds the full SegFormer graph (encoder + all-MLP decoder) for
// a square-capable input of imgH x imgW pixels.
//
// Layer naming convention (used by the pruning machinery in internal/prune):
//
//	enc.patchembed{S}            overlap patch embedding conv of stage S
//	enc.s{S}.b{B}.attn.*         efficient self-attention sub-layers
//	enc.s{S}.b{B}.mlp.*          MLP (fc1, dwconv, act, fc2)
//	dec.linear{S}                per-stage decode MLP ("DecodeLinear{S}")
//	dec.conv2dfuse               the dominant 1x1 fusion convolution
//	dec.conv2dpred               the prediction convolution
func SegFormer(cfg SegFormerConfig, imgH, imgW int) (*graph.Graph, error) {
	if imgH <= 0 || imgW <= 0 {
		return nil, fmt.Errorf("nn: invalid input size %dx%d", imgH, imgW)
	}
	if imgH%32 != 0 || imgW%32 != 0 {
		return nil, fmt.Errorf("nn: SegFormer input must be divisible by 32, got %dx%d", imgH, imgW)
	}
	g := &graph.Graph{
		Name:   "SegFormer-" + cfg.Variant,
		Task:   "semantic-segmentation",
		InputH: imgH,
		InputW: imgW,
	}

	// Per-stage spatial resolutions: H/4, H/8, H/16, H/32.
	var sh, sw [4]int
	for s := 0; s < 4; s++ {
		sh[s] = imgH >> (2 + s)
		sw[s] = imgW >> (2 + s)
	}

	inC := 3
	inH, inW := imgH, imgW
	for s := 0; s < 4; s++ {
		dim := cfg.EmbedDims[s]
		k, stride, pad := 3, 2, 1
		if s == 0 {
			k, stride, pad = 7, 4, 3
		}
		outH := graph.ConvOut(inH, k, stride, pad)
		outW := graph.ConvOut(inW, k, stride, pad)
		g.Add(graph.Layer{
			Name: "enc.patchembed" + strconv.Itoa(s), Kind: graph.Conv2D,
			Module: "encoder", Stage: s, Block: -1,
			InC: inC, OutC: dim, KH: k, KW: k, SH: stride, SW: stride,
			InH: inH, InW: inW, OutH: outH, OutW: outW, Groups: 1, HasBias: true,
		})
		g.Add(graph.Layer{
			Name: "enc.patchembed" + strconv.Itoa(s) + ".norm", Kind: graph.LayerNorm,
			Module: "encoder", Stage: s, Block: -1,
			Elems: outH * outW * dim, Channels: dim,
		})

		tokens := sh[s] * sw[s]
		for b := 0; b < cfg.Depths[s]; b++ {
			addSegFormerBlock(g, cfg, s, b, tokens, sh[s], sw[s])
		}
		g.Add(graph.Layer{
			Name: "enc.s" + strconv.Itoa(s) + ".norm", Kind: graph.LayerNorm,
			Module: "encoder", Stage: s, Block: -1,
			Elems: tokens * dim, Channels: dim,
		})
		inC, inH, inW = dim, sh[s], sw[s]
	}

	addSegFormerDecoder(g, cfg, sh, sw)

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// addSegFormerBlock emits one MiT encoder block: efficient self-attention
// with spatial reduction followed by the Mix-FFN (fc1 -> 3x3 depthwise conv
// -> GELU -> fc2), each wrapped in LayerNorm and a residual add.
func addSegFormerBlock(g *graph.Graph, cfg SegFormerConfig, s, b, tokens, h, w int) {
	dim := cfg.EmbedDims[s]
	heads := cfg.NumHeads[s]
	sr := cfg.SRRatios[s]
	headDim := dim / heads
	redTokens := tokens
	if sr > 1 {
		redTokens = (h / sr) * (w / sr)
	}

	add := func(leaf string, l graph.Layer) {
		l.Name = blockName("enc", s, b, leaf)
		l.Module = "encoder"
		l.Stage = s
		l.Block = b
		g.Add(l)
	}

	// --- Efficient self-attention ---
	add("attn.norm", graph.Layer{Kind: graph.LayerNorm, Elems: tokens * dim, Channels: dim})
	add("attn.q", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: dim, OutF: dim})
	if sr > 1 {
		add("attn.sr", graph.Layer{
			Kind: graph.Conv2D,
			InC:  dim, OutC: dim, KH: sr, KW: sr, SH: sr, SW: sr,
			InH: h, InW: w, OutH: h / sr, OutW: w / sr, Groups: 1, HasBias: true,
		})
		add("attn.srnorm", graph.Layer{Kind: graph.LayerNorm, Elems: redTokens * dim, Channels: dim})
	}
	add("attn.k", graph.Layer{Kind: graph.Linear, Tokens: redTokens, InF: dim, OutF: dim})
	add("attn.v", graph.Layer{Kind: graph.Linear, Tokens: redTokens, InF: dim, OutF: dim})
	add("attn.qk", graph.Layer{Kind: graph.MatMul, Batch: heads, M: tokens, K: headDim, N: redTokens})
	add("attn.softmax", graph.Layer{Kind: graph.Softmax, Elems: heads * tokens * redTokens})
	add("attn.av", graph.Layer{Kind: graph.MatMul, Batch: heads, M: tokens, K: redTokens, N: headDim})
	add("attn.proj", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: dim, OutF: dim})
	add("attn.residual", graph.Layer{Kind: graph.Add, Elems: tokens * dim})

	// --- Mix-FFN ---
	hidden := dim * cfg.MLPRatio
	add("mlp.norm", graph.Layer{Kind: graph.LayerNorm, Elems: tokens * dim, Channels: dim})
	add("mlp.fc1", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: dim, OutF: hidden})
	add("mlp.dwconv", graph.Layer{
		Kind: graph.DWConv2D,
		InC:  hidden, OutC: hidden, KH: 3, KW: 3, SH: 1, SW: 1,
		InH: h, InW: w, OutH: h, OutW: w, Groups: hidden, HasBias: true,
	})
	add("mlp.act", graph.Layer{Kind: graph.GELU, Elems: tokens * hidden})
	add("mlp.fc2", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: hidden, OutF: dim})
	add("mlp.residual", graph.Layer{Kind: graph.Add, Elems: tokens * dim})
}

// addSegFormerDecoder emits the all-MLP decode head: per-stage linear
// projections to the decoder dim, bilinear upsampling of stages 1..3 to the
// stage-0 resolution, channel concatenation, the dominant Conv2DFuse 1x1
// convolution with BatchNorm+ReLU, and the Conv2DPred classifier.
func addSegFormerDecoder(g *graph.Graph, cfg SegFormerConfig, sh, sw [4]int) {
	d := cfg.DecoderDim
	h0, w0 := sh[0], sw[0]
	for s := 0; s < 4; s++ {
		tokens := sh[s] * sw[s]
		g.Add(graph.Layer{
			Name: "dec.linear" + strconv.Itoa(s), Kind: graph.Linear,
			Module: "decoder", Stage: s, Block: -1,
			Tokens: tokens, InF: cfg.EmbedDims[s], OutF: d,
		})
		if s > 0 {
			g.Add(graph.Layer{
				Name: "dec.upsample" + strconv.Itoa(s), Kind: graph.Interpolate,
				Module: "decoder", Stage: s, Block: -1,
				Elems: h0 * w0 * d,
			})
		}
	}
	g.Add(graph.Layer{
		Name: "dec.concat", Kind: graph.Concat,
		Module: "decoder", Stage: -1, Block: -1,
		Elems: h0 * w0 * 4 * d,
	})
	g.Add(graph.Layer{
		Name: "dec.conv2dfuse", Kind: graph.Conv2D,
		Module: "decoder", Stage: -1, Block: -1,
		InC: 4 * d, OutC: d, KH: 1, KW: 1, SH: 1, SW: 1,
		InH: h0, InW: w0, OutH: h0, OutW: w0, Groups: 1,
	})
	g.Add(graph.Layer{
		Name: "dec.fuse.bn", Kind: graph.BatchNorm,
		Module: "decoder", Stage: -1, Block: -1,
		Elems: h0 * w0 * d, Channels: d,
	})
	g.Add(graph.Layer{
		Name: "dec.fuse.relu", Kind: graph.ReLU,
		Module: "decoder", Stage: -1, Block: -1,
		Elems: h0 * w0 * d,
	})
	g.Add(graph.Layer{
		Name: "dec.conv2dpred", Kind: graph.Conv2D,
		Module: "decoder", Stage: -1, Block: -1,
		InC: d, OutC: cfg.NumClasses, KH: 1, KW: 1, SH: 1, SW: 1,
		InH: h0, InW: w0, OutH: h0, OutW: w0, Groups: 1, HasBias: true,
	})
	g.Add(graph.Layer{
		Name: "dec.upsample.final", Kind: graph.Interpolate,
		Module: "decoder", Stage: -1, Block: -1,
		Elems: g.InputH * g.InputW * cfg.NumClasses / 16, // to quarter res per mmseg inference
	})
}

// MustSegFormer builds a standard SegFormer variant or panics; convenience
// for tests and examples where the configuration is statically valid.
func MustSegFormer(variant string, numClasses, imgH, imgW int) *graph.Graph {
	cfg, err := SegFormerB(variant, numClasses)
	if err != nil {
		panic(err)
	}
	g, err := SegFormer(cfg, imgH, imgW)
	if err != nil {
		panic(err)
	}
	return g
}
