package graph

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// blockGraph is a toy encoder: two stages of depth blocks, each block two
// linear layers, with stem, stage-boundary and head layers outside any
// block.
func blockGraph(depth int) *Graph {
	g := &Graph{Name: "toy", Task: "test", InputH: 32, InputW: 32}
	lin := func(name string, s, b, f int) {
		g.Add(Layer{Name: name, Kind: Linear, Stage: s, Block: b, Tokens: 64, InF: f, OutF: f})
	}
	lin("stem", -1, -1, 8)
	for s := 0; s < 2; s++ {
		for b := 0; b < depth; b++ {
			pre := "s" + strconv.Itoa(s) + ".b" + strconv.Itoa(b)
			lin(pre+".a", s, b, 8+s)
			lin(pre+".b", s, b, 16+b)
		}
		lin("s"+strconv.Itoa(s)+".norm", s, -1, 4)
	}
	lin("head", -1, -1, 32)
	lin("out", -1, -1, 2)
	return g
}

// TestPlanMatchesItsGraph: a plan's length, MACs and signature are those
// of the graph it materialises, which holds the template's layers minus
// bypassed blocks and dropped layers, with patches in place.
func TestPlanMatchesItsGraph(t *testing.T) {
	tmpl, err := Compile(blockGraph(3))
	if err != nil {
		t.Fatal(err)
	}
	head, _ := tmpl.Pos("head")
	out, _ := tmpl.Pos("out")
	patched := *tmpl.Layer(head)
	patched.OutF = 5
	for _, keep := range [][]int{nil, {3, 3}, {1}, {2, 1}, {0, 3}} {
		// Twice each: the second signature comes from the memo.
		for range 2 {
			p, err := tmpl.Plan("toy[x]", keep, []Patch{{Pos: out, Drop: true}, {Pos: head, Layer: patched}})
			if err != nil {
				t.Fatal(err)
			}
			g := p.Graph()
			var want []string
			for _, l := range blockGraph(3).Layers {
				if l.Name == "out" || (l.Block >= 0 && l.Stage < len(keep) && l.Block >= keep[l.Stage]) {
					continue
				}
				want = append(want, l.Name)
			}
			var got []string
			for _, l := range g.Layers {
				got = append(got, l.Name)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("keep %v: layers %v, want %v", keep, got, want)
			}
			if f := g.Find("head"); f == nil || f.OutF != 5 {
				t.Fatalf("keep %v: head not patched: %+v", keep, f)
			}
			if g.Name != "toy[x]" || p.Len() != len(g.Layers) || p.MACs() != g.TotalMACs() || p.Signature() != g.Signature() {
				t.Fatalf("keep %v: plan %d/%d/%#x, graph %q %d/%d/%#x", keep, p.Len(), p.MACs(), p.Signature(),
					g.Name, len(g.Layers), g.TotalMACs(), g.Signature())
			}
		}
	}
	// The full model, unpatched, is the template's graph itself.
	p, err := tmpl.Plan("toy", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := p.Graph(); !reflect.DeepEqual(g, blockGraph(3)) || p.Runs() != 1 {
		t.Errorf("identity plan: %d runs, graph equal %v", p.Runs(), reflect.DeepEqual(g, blockGraph(3)))
	}
}

func TestTemplateAndPlanErrors(t *testing.T) {
	bad := blockGraph(2)
	bad.Layers[1], bad.Layers[3] = bad.Layers[3], bad.Layers[1] // s0.b1 before s0.b0
	if _, err := Compile(bad); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Errorf("out-of-order blocks: %v", err)
	}
	dup := blockGraph(2)
	dup.Layers[2].Name = dup.Layers[1].Name
	if _, err := Compile(dup); err == nil {
		t.Error("duplicate names compiled")
	}

	tmpl, err := Compile(blockGraph(2))
	if err != nil {
		t.Fatal(err)
	}
	inBlock, _ := tmpl.Pos("s0.b1.a")
	head, _ := tmpl.Pos("head")
	invalid := *tmpl.Layer(head)
	invalid.InF = 0
	for _, tc := range []struct {
		keep    []int
		patches []Patch
		want    string
	}{
		{[]int{3}, nil, "keeps 3 blocks of stage 0"},
		{[]int{1, 1, 1}, nil, "of 3 stages"},
		{[]int{1}, []Patch{{Pos: inBlock, Drop: true}}, "bypasses"},
		{nil, []Patch{{Pos: head, Drop: true}, {Pos: head, Drop: true}}, "patches twice"},
		{nil, []Patch{{Pos: tmpl.Len(), Drop: true}}, "out of range"},
		{nil, []Patch{{Pos: head, Layer: invalid}}, "non-positive linear dims"},
	} {
		if _, err := tmpl.Plan("p", tc.keep, tc.patches); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("keep %v patches %v: error %v, want %q", tc.keep, len(tc.patches), err, tc.want)
		}
	}
}
