package nn

import (
	"fmt"
	"strconv"

	"vitdyn/internal/graph"
)

// DETRVariant selects one of the four detection case studies. All variants
// share the ResNet-50 backbone + transformer encoder-decoder skeleton of
// DETR; the later variants refine the decoder query design, which changes
// the decoder's projection and attention shapes.
type DETRVariant string

// The four DETR-family detectors from Table I (detrex base variants).
const (
	DETR            DETRVariant = "DETR"
	DABDETR         DETRVariant = "DAB-DETR"
	AnchorDETR      DETRVariant = "Anchor-DETR"
	ConditionalDETR DETRVariant = "Conditional-DETR"
)

// DETRConfig captures the transformer hyperparameters of a DETR-family
// detector.
type DETRConfig struct {
	Variant       DETRVariant
	HiddenDim     int // transformer width (256)
	Heads         int
	EncLayers     int
	DecLayers     int
	FFNDim        int
	Queries       int  // object queries
	CrossQKDim    int  // Q/K width in decoder cross-attention (512 for the conditional/DAB concatenated queries)
	QueryMLPTerms int  // extra per-layer query transformation linears (anchor/box embeddings)
	RCDA          bool // row-column decoupled attention (Anchor-DETR)
	NumClasses    int
}

// DETRFamily returns the configuration of one of the four case studies.
func DETRFamily(v DETRVariant) (DETRConfig, error) {
	cfg := DETRConfig{
		Variant:    v,
		HiddenDim:  256,
		Heads:      8,
		EncLayers:  6,
		DecLayers:  6,
		FFNDim:     2048,
		NumClasses: 91, // COCO-2017
	}
	switch v {
	case DETR:
		cfg.Queries = 100
		cfg.CrossQKDim = 256
		cfg.QueryMLPTerms = 0
	case ConditionalDETR:
		// Conditional spatial queries: decoder cross-attention concatenates
		// content and spatial embeddings, doubling the Q/K width, plus one
		// query-scale MLP per layer.
		cfg.Queries = 300
		cfg.CrossQKDim = 512
		cfg.QueryMLPTerms = 2
	case DABDETR:
		// Dynamic anchor boxes: 4D anchors are iteratively refined with
		// width/height modulation MLPs; cross-attention also uses the
		// concatenated 512-wide queries.
		cfg.Queries = 300
		cfg.CrossQKDim = 512
		cfg.QueryMLPTerms = 4
	case AnchorDETR:
		// Anchor points with 3 patterns x 300 positions = 900 effective
		// queries in the decoder.
		cfg.Queries = 900
		cfg.CrossQKDim = 256
		cfg.QueryMLPTerms = 1
		cfg.RCDA = true
	default:
		return DETRConfig{}, fmt.Errorf("nn: unknown DETR variant %q", v)
	}
	return cfg, nil
}

// DETRModel builds the full detection graph: ResNet-50 backbone, input
// projection, transformer encoder over the H/32 x W/32 feature map,
// transformer decoder over object queries, and classification/box heads.
func DETRModel(v DETRVariant, imgH, imgW int) (*graph.Graph, error) {
	cfg, err := DETRFamily(v)
	if err != nil {
		return nil, err
	}
	if imgH <= 0 || imgW <= 0 {
		return nil, fmt.Errorf("nn: invalid input size %dx%d", imgH, imgW)
	}
	backbone, err := ResNet(ResNet50(0, false), imgH, imgW)
	if err != nil {
		return nil, err
	}

	g := &graph.Graph{
		Name:   string(v),
		Task:   "object-detection",
		InputH: imgH,
		InputW: imgW,
	}
	for _, l := range backbone.Layers {
		l.Name = "backbone." + l.Name
		g.Layers = append(g.Layers, l)
	}

	d := cfg.HiddenDim
	fh, fw := ceilDiv(imgH, 32), ceilDiv(imgW, 32)
	tokens := fh * fw
	backboneC := 2048

	g.Add(graph.Layer{
		Name: "inputproj", Kind: graph.Conv2D,
		Module: "neck", Stage: -1, Block: -1,
		InC: backboneC, OutC: d, KH: 1, KW: 1, SH: 1, SW: 1,
		InH: fh, InW: fw, OutH: fh, OutW: fw, Groups: 1, HasBias: true,
	})

	headDim := d / cfg.Heads
	for b := 0; b < cfg.EncLayers; b++ {
		add := func(leaf string, l graph.Layer) {
			l.Name = "enc.b" + strconv.Itoa(b) + "." + leaf
			l.Module = "encoder"
			l.Stage = -1
			l.Block = b
			g.Add(l)
		}
		add("attn.q", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: d, OutF: d})
		add("attn.k", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: d, OutF: d})
		add("attn.v", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: d, OutF: d})
		if cfg.RCDA {
			// Row-column decoupled attention: tokens attend to one row and
			// one column instead of the full feature map.
			add("attn.qk.row", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: tokens, K: headDim, N: fw})
			add("attn.softmax.row", graph.Layer{Kind: graph.Softmax, Elems: cfg.Heads * tokens * fw})
			add("attn.av.row", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: tokens, K: fw, N: headDim})
			add("attn.qk.col", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: tokens, K: headDim, N: fh})
			add("attn.softmax.col", graph.Layer{Kind: graph.Softmax, Elems: cfg.Heads * tokens * fh})
			add("attn.av.col", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: tokens, K: fh, N: headDim})
		} else {
			add("attn.qk", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: tokens, K: headDim, N: tokens})
			add("attn.softmax", graph.Layer{Kind: graph.Softmax, Elems: cfg.Heads * tokens * tokens})
			add("attn.av", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: tokens, K: tokens, N: headDim})
		}
		add("attn.proj", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: d, OutF: d})
		add("attn.norm", graph.Layer{Kind: graph.LayerNorm, Elems: tokens * d, Channels: d})
		add("attn.residual", graph.Layer{Kind: graph.Add, Elems: tokens * d})
		add("ffn.fc1", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: d, OutF: cfg.FFNDim})
		add("ffn.act", graph.Layer{Kind: graph.ReLU, Elems: tokens * cfg.FFNDim})
		add("ffn.fc2", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: cfg.FFNDim, OutF: d})
		add("ffn.norm", graph.Layer{Kind: graph.LayerNorm, Elems: tokens * d, Channels: d})
		add("ffn.residual", graph.Layer{Kind: graph.Add, Elems: tokens * d})
	}

	q := cfg.Queries
	for b := 0; b < cfg.DecLayers; b++ {
		add := func(leaf string, l graph.Layer) {
			l.Name = "dec.b" + strconv.Itoa(b) + "." + leaf
			l.Module = "decoder"
			l.Stage = -1
			l.Block = b
			g.Add(l)
		}
		// Self-attention over object queries.
		add("self.q", graph.Layer{Kind: graph.Linear, Tokens: q, InF: d, OutF: d})
		add("self.k", graph.Layer{Kind: graph.Linear, Tokens: q, InF: d, OutF: d})
		add("self.v", graph.Layer{Kind: graph.Linear, Tokens: q, InF: d, OutF: d})
		add("self.qk", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: q, K: headDim, N: q})
		add("self.softmax", graph.Layer{Kind: graph.Softmax, Elems: cfg.Heads * q * q})
		add("self.av", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: q, K: q, N: headDim})
		add("self.proj", graph.Layer{Kind: graph.Linear, Tokens: q, InF: d, OutF: d})
		add("self.norm", graph.Layer{Kind: graph.LayerNorm, Elems: q * d, Channels: d})
		add("self.residual", graph.Layer{Kind: graph.Add, Elems: q * d})

		// Cross-attention from queries to encoder memory. The variant's
		// CrossQKDim widens the score computation for conditional/DAB
		// concatenated content+spatial queries.
		ck := cfg.CrossQKDim
		ckHead := ck / cfg.Heads
		add("cross.q", graph.Layer{Kind: graph.Linear, Tokens: q, InF: d, OutF: ck})
		add("cross.k", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: d, OutF: ck})
		add("cross.v", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: d, OutF: d})
		if cfg.RCDA {
			add("cross.qk.row", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: q, K: ckHead, N: fw})
			add("cross.softmax.row", graph.Layer{Kind: graph.Softmax, Elems: cfg.Heads * q * fw})
			add("cross.av.row", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: q, K: fw, N: headDim})
			add("cross.qk.col", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: q, K: ckHead, N: fh})
			add("cross.softmax.col", graph.Layer{Kind: graph.Softmax, Elems: cfg.Heads * q * fh})
			add("cross.av.col", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: q, K: fh, N: headDim})
		} else {
			add("cross.qk", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: q, K: ckHead, N: tokens})
			add("cross.softmax", graph.Layer{Kind: graph.Softmax, Elems: cfg.Heads * q * tokens})
			add("cross.av", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: q, K: tokens, N: headDim})
		}
		add("cross.proj", graph.Layer{Kind: graph.Linear, Tokens: q, InF: d, OutF: d})
		add("cross.norm", graph.Layer{Kind: graph.LayerNorm, Elems: q * d, Channels: d})
		add("cross.residual", graph.Layer{Kind: graph.Add, Elems: q * d})

		for m := 0; m < cfg.QueryMLPTerms; m++ {
			add("querymlp"+strconv.Itoa(m), graph.Layer{Kind: graph.Linear, Tokens: q, InF: d, OutF: d})
		}

		add("ffn.fc1", graph.Layer{Kind: graph.Linear, Tokens: q, InF: d, OutF: cfg.FFNDim})
		add("ffn.act", graph.Layer{Kind: graph.ReLU, Elems: q * cfg.FFNDim})
		add("ffn.fc2", graph.Layer{Kind: graph.Linear, Tokens: q, InF: cfg.FFNDim, OutF: d})
		add("ffn.norm", graph.Layer{Kind: graph.LayerNorm, Elems: q * d, Channels: d})
		add("ffn.residual", graph.Layer{Kind: graph.Add, Elems: q * d})
	}

	// Prediction heads: class linear + 3-layer box MLP.
	g.Add(graph.Layer{
		Name: "head.class", Kind: graph.Linear,
		Module: "head", Stage: -1, Block: -1,
		Tokens: q, InF: d, OutF: cfg.NumClasses + 1,
	})
	for i, outF := range []int{d, d, 4} {
		g.Add(graph.Layer{
			Name: "head.bbox" + strconv.Itoa(i), Kind: graph.Linear,
			Module: "head", Stage: -1, Block: -1,
			Tokens: q, InF: d, OutF: outF,
		})
	}

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustDETR builds a DETR-family model or panics.
func MustDETR(v DETRVariant, imgH, imgW int) *graph.Graph {
	g, err := DETRModel(v, imgH, imgW)
	if err != nil {
		panic(err)
	}
	return g
}

// BackboneMACs returns the MACs attributed to the ResNet-50 backbone of a
// detection graph (layers named "backbone.*").
func BackboneMACs(g *graph.Graph) int64 {
	var t int64
	for i := range g.Layers {
		if g.Layers[i].Module == "backbone" {
			t += g.Layers[i].MACs()
		}
	}
	return t
}
