package nn

import (
	"fmt"
	"strconv"

	"vitdyn/internal/graph"
)

// ViTConfig describes the original Vision Transformer, the paper's
// convolution-free reference point ("in stark contrast to the zero
// convolutions in ViT", Section III-A). The patch embedding is modeled as a
// Linear over flattened patches, exactly as in the original formulation.
type ViTConfig struct {
	Variant   string
	PatchSize int
	Dim       int
	Depth     int
	Heads     int
	MLPRatio  int
	Classes   int
}

// ViTBase16 returns the ViT-Base/16 configuration.
func ViTBase16(classes int) ViTConfig {
	return ViTConfig{Variant: "Base-16", PatchSize: 16, Dim: 768, Depth: 12, Heads: 12, MLPRatio: 4, Classes: classes}
}

// ViT builds the ViT graph for imgH x imgW input.
func ViT(cfg ViTConfig, imgH, imgW int) (*graph.Graph, error) {
	if imgH <= 0 || imgW <= 0 || imgH%cfg.PatchSize != 0 || imgW%cfg.PatchSize != 0 {
		return nil, fmt.Errorf("nn: ViT input %dx%d not divisible by patch size %d", imgH, imgW, cfg.PatchSize)
	}
	g := &graph.Graph{
		Name:   "ViT-" + cfg.Variant,
		Task:   "classification",
		InputH: imgH,
		InputW: imgW,
	}
	tokens := (imgH / cfg.PatchSize) * (imgW / cfg.PatchSize)
	patchDim := 3 * cfg.PatchSize * cfg.PatchSize
	d := cfg.Dim
	headDim := d / cfg.Heads

	g.Add(graph.Layer{
		Name: "patchembed", Kind: graph.Linear,
		Module: "encoder", Stage: -1, Block: -1,
		Tokens: tokens, InF: patchDim, OutF: d,
	})
	tokens++ // class token
	for b := 0; b < cfg.Depth; b++ {
		add := func(leaf string, l graph.Layer) {
			l.Name = "enc.b" + strconv.Itoa(b) + "." + leaf
			l.Module = "encoder"
			l.Stage = -1
			l.Block = b
			g.Add(l)
		}
		add("attn.norm", graph.Layer{Kind: graph.LayerNorm, Elems: tokens * d, Channels: d})
		add("attn.qkv", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: d, OutF: 3 * d})
		add("attn.qk", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: tokens, K: headDim, N: tokens})
		add("attn.softmax", graph.Layer{Kind: graph.Softmax, Elems: cfg.Heads * tokens * tokens})
		add("attn.av", graph.Layer{Kind: graph.MatMul, Batch: cfg.Heads, M: tokens, K: tokens, N: headDim})
		add("attn.proj", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: d, OutF: d})
		add("attn.residual", graph.Layer{Kind: graph.Add, Elems: tokens * d})
		add("mlp.norm", graph.Layer{Kind: graph.LayerNorm, Elems: tokens * d, Channels: d})
		add("mlp.fc1", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: d, OutF: d * cfg.MLPRatio})
		add("mlp.act", graph.Layer{Kind: graph.GELU, Elems: tokens * d * cfg.MLPRatio})
		add("mlp.fc2", graph.Layer{Kind: graph.Linear, Tokens: tokens, InF: d * cfg.MLPRatio, OutF: d})
		add("mlp.residual", graph.Layer{Kind: graph.Add, Elems: tokens * d})
	}
	g.Add(graph.Layer{
		Name: "head.norm", Kind: graph.LayerNorm,
		Module: "head", Stage: -1, Block: -1,
		Elems: tokens * d, Channels: d,
	})
	g.Add(graph.Layer{
		Name: "head.fc", Kind: graph.Linear,
		Module: "head", Stage: -1, Block: -1,
		Tokens: 1, InF: d, OutF: cfg.Classes,
	})
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
