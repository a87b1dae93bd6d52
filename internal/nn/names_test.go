package nn

import (
	"hash/fnv"
	"testing"

	"vitdyn/internal/graph"
)

// layerNameDigest hashes every layer name of g, in order, newline
// separated.
func layerNameDigest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	for i := range g.Layers {
		h.Write([]byte(g.Layers[i].Name))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// namedModels builds every model family the package ships, at the input
// sizes the paper evaluates them at.
func namedModels(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	for _, v := range []string{"B0", "B1", "B2", "B3", "B4", "B5"} {
		out["segformer-"+v] = MustSegFormer(v, 150, 512, 512)
	}
	for _, v := range []string{"Tiny", "Small", "Base"} {
		out["swin-"+v] = MustSwin(v, 150, 512, 512)
	}
	for _, v := range []DETRVariant{DETR, DABDETR, AnchorDETR, ConditionalDETR} {
		out["detr-"+string(v)] = MustDETR(v, 800, 1216)
	}
	out["resnet50"] = MustResNet50(224, 224, true)
	for _, sub := range OFACatalog() {
		g, err := OFAResNet(sub, 224, 224)
		if err != nil {
			t.Fatal(err)
		}
		out["ofa-"+sub.ID] = g
	}
	g, err := ViT(ViTBase16(1000), 224, 224)
	if err != nil {
		t.Fatal(err)
	}
	out["vit-b16"] = g
	return out
}

// TestLayerNamesUnchanged pins every layer name of every model to the
// names the fmt.Sprintf-based builders produced ("enc.s%d.b%d.%s",
// "dec.linear%d", ...): the (layer count, FNV-1a digest of the
// newline-joined names) pairs below were captured from that code. The
// pruning machinery, /v1/profile and the experiment tables all address
// layers by name, so a changed name is a behaviour change.
func TestLayerNamesUnchanged(t *testing.T) {
	want := map[string]struct {
		layers int
		digest uint64
	}{
		"detr-Anchor-DETR":      {409, 0xe4283121d8d8f0c8},
		"detr-Conditional-DETR": {379, 0x21b5d57ffe2737c7},
		"detr-DAB-DETR":         {391, 0x27bbc1b3c3c23c4d},
		"detr-DETR":             {367, 0x45d7f4cedea885b9},
		"ofa-ofa-d0-e02-w065":   {70, 0xd02d1be57316317f},
		"ofa-ofa-d0-e02-w08":    {70, 0xd02d1be57316317f},
		"ofa-ofa-d0-e025-w08":   {70, 0xd02d1be57316317f},
		"ofa-ofa-d1-e025-w08":   {94, 0xba78086c158a082e},
		"ofa-ofa-d1-e025-w10":   {94, 0xba78086c158a082e},
		"ofa-ofa-d1-e035-w10":   {94, 0xba78086c158a082e},
		"ofa-ofa-d2-e025-w10":   {110, 0x67719d846d7edee},
		"ofa-ofa-d2-e035-w10":   {110, 0x67719d846d7edee},
		"ofa-ofa-full":          {142, 0x4226b68fd9935b12},
		"ofa-ofa-min":           {54, 0xfb82d8ed2d6e201d},
		"resnet50":              {142, 0x4226b68fd9935b12},
		"segformer-B0":          {157, 0x6e326974ddbc375b},
		"segformer-B1":          {157, 0x6e326974ddbc375b},
		"segformer-B2":          {291, 0x1dd48091f4bba65b},
		"segformer-B3":          {495, 0x1d8e4b9aa010da7f},
		"segformer-B4":          {716, 0xd400cfd37410ac63},
		"segformer-B5":          {903, 0x44812602091f90af},
		"swin-Base":             {458, 0x4975ff1700ceadb8},
		"swin-Small":            {458, 0x4975ff1700ceadb8},
		"swin-Tiny":             {260, 0x73eb3b206caca24a},
		"vit-b16":               {147, 0x716c3e4d9078f0af},
	}
	models := namedModels(t)
	if len(models) != len(want) {
		t.Fatalf("%d models built, %d pinned", len(models), len(want))
	}
	for name, g := range models {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned digest", name)
			continue
		}
		if len(g.Layers) != w.layers || layerNameDigest(g) != w.digest {
			t.Errorf("%s: %d layers, name digest %#x; want %d, %#x",
				name, len(g.Layers), layerNameDigest(g), w.layers, w.digest)
		}
	}
	// Spot checks that read as the old format strings.
	seg := models["segformer-B2"]
	for _, n := range []string{"enc.patchembed3.norm", "enc.s2.b5.mlp.fc2", "enc.s3.norm", "dec.linear0", "dec.upsample3"} {
		if seg.Find(n) == nil {
			t.Errorf("segformer-B2 lacks %q", n)
		}
	}
	swin := models["swin-Tiny"]
	for _, n := range []string{"enc.merge3.norm", "enc.s1.b1.attn.roll", "enc.outnorm2", "dec.psp.conv6", "dec.lateral2.bn", "dec.topdown0.add", "dec.fuse.up3"} {
		if swin.Find(n) == nil {
			t.Errorf("swin-Tiny lacks %q", n)
		}
	}
}
