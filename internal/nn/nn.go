// Package nn builds the layer graphs of every model the paper studies:
// SegFormer (MiT-B0..B5 encoder + all-MLP decoder), Swin Transformer
// (Tiny/Small/Base + UPerNet decoder), the DETR family (DETR, DAB-DETR,
// Anchor-DETR, Conditional-DETR on ResNet-50 backbones), ResNet-50 itself
// with the Once-For-All elastic design space, and the original ViT as a
// convolution-free reference.
//
// All builders are analytical: they emit the exact operator shapes of one
// inference at a given input resolution. DESIGN.md verifies that the
// resulting MAC totals reproduce the paper's Table I GFLOPs and the
// per-layer shares quoted in Section III (Conv2DFuse 62%, fpn_bottleneck
// 65%, DecodeLinear0 1.3%, and so on).
package nn

import "strconv"

// ceilDiv returns ceil(a/b) for positive integers.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// blockName tags a layer inside stage s, block b.
func blockName(prefix string, s, b int, leaf string) string {
	return prefix + ".s" + strconv.Itoa(s) + ".b" + strconv.Itoa(b) + "." + leaf
}
