package graph

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Template is a full model compiled once so its pruned execution paths can
// be priced without building their graphs. It holds the validated layer
// table, the position range of every (stage, block) encoder block, a name
// index and per-position MAC prefix sums. A path that bypasses trailing
// blocks and patches a few layers is then a Plan: a short list of position
// runs over the template, from which MACs, Signature and any per-layer
// additive cost follow directly.
type Template struct {
	g     *Graph         // the full model; its layers are never mutated
	id    uint64         // process-unique, for caches keyed by template
	units []unit         // the layer table in order, split at block boundaries
	depth []int          // encoder blocks per stage
	macs  []int64        // macs[i] = MACs of layers [0, i)
	pos   map[string]int // layer name → position

	sigMu   sync.RWMutex
	sigMemo map[runState]uint64 // see mixRun
}

// runState is a signature hash state entering template positions
// [start, end).
type runState struct {
	h          uint64
	start, end int32
}

// maxSigMemo bounds a template's signature memo. Plans over one template
// share few distinct (state, run) prefixes — about one per combination
// of bypassed blocks — so the bound only guards against pathological
// use.
const maxSigMemo = 4096

// mixRun folds template positions [start, end) into signature state h,
// memoized: the prefix of a plan up to its first replacement layer
// depends only on the header and the runs before it, which the plans of
// one template share, and hashing those few hundred layers is most of
// what pricing a plan costs.
func (t *Template) mixRun(h uint64, start, end int32) uint64 {
	k := runState{h: h, start: start, end: end}
	t.sigMu.RLock()
	out, ok := t.sigMemo[k]
	t.sigMu.RUnlock()
	if ok {
		return out
	}
	out = h
	for i := start; i < end; i++ {
		out = mixLayer(out, &t.g.Layers[i])
	}
	t.sigMu.Lock()
	if len(t.sigMemo) < maxSigMemo {
		t.sigMemo[k] = out
	}
	t.sigMu.Unlock()
	return out
}

// unit is one run of template positions [start, end): one whole encoder
// block (block >= 0), or a run of layers outside any block (block == -1),
// which every plan keeps.
type unit struct {
	start, end   int32
	stage, block int32
}

var templateIDs atomic.Uint64

// Compile validates g and indexes it as a template. Encoder blocks are the
// layers with Stage >= 0 and Block >= 0; each (stage, block) must be one
// contiguous run, and a stage's blocks must appear in order 0, 1, 2, ...
// so a plan can keep any leading subset. Compile keeps g: the caller must
// not modify it afterwards.
func Compile(g *Graph) (*Template, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	t := &Template{
		g:       g,
		id:      templateIDs.Add(1),
		macs:    make([]int64, len(g.Layers)+1),
		pos:     make(map[string]int, len(g.Layers)),
		sigMemo: map[runState]uint64{},
	}
	for i := range g.Layers {
		l := &g.Layers[i]
		t.macs[i+1] = t.macs[i] + l.MACs()
		t.pos[l.Name] = i
		stage, block := int32(l.Stage), int32(l.Block)
		if stage < 0 || block < 0 {
			stage, block = -1, -1
		}
		if n := len(t.units); n > 0 && t.units[n-1].stage == stage && t.units[n-1].block == block {
			t.units[n-1].end++
			continue
		}
		if block >= 0 {
			for len(t.depth) <= int(stage) {
				t.depth = append(t.depth, 0)
			}
			if int(block) != t.depth[stage] {
				return nil, fmt.Errorf("graph %q: layer %q: block %d of stage %d out of order (want block %d)",
					g.Name, l.Name, block, stage, t.depth[stage])
			}
			t.depth[stage]++
		}
		t.units = append(t.units, unit{start: int32(i), end: int32(i) + 1, stage: stage, block: block})
	}
	return t, nil
}

// ID returns the template's process-unique identity.
func (t *Template) ID() uint64 { return t.id }

// Name returns the full model's graph name.
func (t *Template) Name() string { return t.g.Name }

// Len returns the number of layers in the full model.
func (t *Template) Len() int { return len(t.g.Layers) }

// Layer returns the layer at position i. It is shared: do not modify it.
func (t *Template) Layer(i int) *Layer { return &t.g.Layers[i] }

// Pos returns the position of the named layer.
func (t *Template) Pos(name string) (int, bool) {
	i, ok := t.pos[name]
	return i, ok
}

// Patch replaces the template layer at Pos with Layer in a plan or, with
// Drop set, removes it.
type Patch struct {
	Pos   int
	Layer Layer
	Drop  bool
}

// Plan is one execution path over a template: the layers of the full
// model minus bypassed trailing blocks, with a few layers replaced or
// dropped. Its layer sequence is exactly what Graph materialises, so
// MACs and Signature equal those of the materialised graph.
type Plan struct {
	t       *Template
	name    string
	n       int     // layers in the path
	runs    []run   // the path's layers, in order
	patches []Layer // replacement layers referenced by runs
}

// run is one stretch of a plan: template positions [start, end), or —
// when patch >= 0 — the single replacement layer patches[patch] at
// position start.
type run struct {
	start, end int32
	patch      int32
}

// Plan derives the path named name that keeps the first keep[s] encoder
// blocks of every stage s (stages past len(keep) keep all their blocks)
// and applies patches, which it sorts by position. A patch may not touch
// a bypassed layer. Replacement layers are validated here; every other
// layer was validated at Compile, and names stay unique because a plan
// only removes or replaces layers.
func (t *Template) Plan(name string, keep []int, patches []Patch) (*Plan, error) {
	if len(keep) > len(t.depth) {
		return nil, fmt.Errorf("graph %q: plan %q keeps blocks of %d stages, model has %d", t.g.Name, name, len(keep), len(t.depth))
	}
	for s, k := range keep {
		if k < 0 || k > t.depth[s] {
			return nil, fmt.Errorf("graph %q: plan %q keeps %d blocks of stage %d, want 0..%d", t.g.Name, name, k, s, t.depth[s])
		}
	}
	slices.SortFunc(patches, func(a, b Patch) int { return a.Pos - b.Pos })
	// Kept blocks merge with their neighbours into one run, so a plan
	// needs about one run per stage it shortens plus two per patch.
	p := &Plan{t: t, name: name, runs: make([]run, 0, 2*len(keep)+2*len(patches)+1), patches: make([]Layer, 0, len(patches))}
	emit := func(start, end, patch int32) {
		p.n += int(end - start)
		if n := len(p.runs); patch < 0 && n > 0 && p.runs[n-1].patch < 0 && p.runs[n-1].end == start {
			p.runs[n-1].end = end
			return
		}
		p.runs = append(p.runs, run{start: start, end: end, patch: patch})
	}
	next := 0
	for _, u := range t.units {
		if u.block >= 0 && int(u.stage) < len(keep) && int(u.block) >= keep[u.stage] {
			continue
		}
		at := u.start
		for ; next < len(patches) && patches[next].Pos < int(u.end); next++ {
			pp := &patches[next]
			if pp.Pos < int(at) {
				return nil, fmt.Errorf("graph %q: plan %q patches position %d, which it bypasses or patches twice", t.g.Name, name, pp.Pos)
			}
			pos := int32(pp.Pos)
			if pos > at {
				emit(at, pos, -1)
			}
			if !pp.Drop {
				if err := pp.Layer.Validate(); err != nil {
					return nil, fmt.Errorf("graph %q: %w", name, err)
				}
				p.patches = append(p.patches, pp.Layer)
				emit(pos, pos+1, int32(len(p.patches)-1))
			}
			at = pos + 1
		}
		if at < u.end {
			emit(at, u.end, -1)
		}
	}
	if next < len(patches) {
		return nil, fmt.Errorf("graph %q: plan %q patches position %d, which it bypasses or which is out of range", t.g.Name, name, patches[next].Pos)
	}
	return p, nil
}

// Template returns the template the plan is over.
func (p *Plan) Template() *Template { return p.t }

// Len returns the number of layers in the path.
func (p *Plan) Len() int { return p.n }

// Runs returns the number of runs the path's layers come in (see Run).
func (p *Plan) Runs() int { return len(p.runs) }

// Run returns run i of the path: template positions [start, end) taken
// as they are, or — when patched is non-nil — the single replacement
// layer patched standing at position start. patched is shared: do not
// modify it.
func (p *Plan) Run(i int) (start, end int, patched *Layer) {
	r := p.runs[i]
	if r.patch >= 0 {
		return int(r.start), int(r.end), &p.patches[r.patch]
	}
	return int(r.start), int(r.end), nil
}

// MACs returns the path's total MACs, equal to TotalMACs of its graph.
func (p *Plan) MACs() int64 {
	var t int64
	for _, r := range p.runs {
		if r.patch >= 0 {
			t += p.patches[r.patch].MACs()
		} else {
			t += p.t.macs[r.end] - p.t.macs[r.start]
		}
	}
	return t
}

// Signature returns the Signature of the path's graph without building
// it. The runs before the plan's first replacement layer are hashed
// through the template's memo (see mixRun).
func (p *Plan) Signature() uint64 {
	g := p.t.g
	h := signatureStart(g.InputH, g.InputW, p.n)
	shared := true
	for _, r := range p.runs {
		switch {
		case r.patch >= 0:
			h = mixLayer(h, &p.patches[r.patch])
			shared = false
		case shared:
			h = p.t.mixRun(h, r.start, r.end)
		default:
			for i := r.start; i < r.end; i++ {
				h = mixLayer(h, &g.Layers[i])
			}
		}
	}
	return h
}

// Graph materialises the path: the template's layers copied and patched.
func (p *Plan) Graph() *Graph {
	g := p.t.g
	out := &Graph{Name: p.name, Task: g.Task, InputH: g.InputH, InputW: g.InputW, Layers: make([]Layer, 0, p.n)}
	for _, r := range p.runs {
		if r.patch >= 0 {
			out.Layers = append(out.Layers, p.patches[r.patch])
		} else {
			out.Layers = append(out.Layers, g.Layers[r.start:r.end]...)
		}
	}
	return out
}
