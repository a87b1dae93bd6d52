package costdb

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestContentsMatchesMapModel drives the compact table through enough
// inserts to span many record and arena chunks and several index
// growths, against a plain map: lookups, first-write-wins, overwrite,
// canonical order, retirement.
func TestContentsMatchesMapModel(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	c := newContents()
	model := map[entryKey][]float64{}
	var order []entryKey
	backends := []string{"gpu/x", "magnet-time/E", "magnet-multi/E", "flops-proxy"}
	for i := 0; i < 30000; i++ {
		k := entryKey{backend: backends[r.IntN(len(backends))], epoch: uint64(1 + r.IntN(2)), sig: r.Uint64N(20000)}
		n := 1 + r.IntN(3)
		if i%5000 == 0 {
			n = maxVals // a full-width vector forces an arena chunk boundary
		}
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = r.Float64()
		}
		isNew, err := c.put(k.backend, k.epoch, k.sig, vals, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, had := model[k]; had == isNew {
			t.Fatalf("put %v: new=%v, model had it=%v", k, isNew, had)
		}
		if isNew {
			model[k] = vals
			order = append(order, k)
		}
	}
	if c.live != len(model) || c.nrecs != len(order) {
		t.Fatalf("live %d / records %d, want %d / %d", c.live, c.nrecs, len(model), len(order))
	}
	for i, k := range order {
		if e, _ := c.entry(i); e.Backend != k.backend || e.Epoch != k.epoch || e.Sig != k.sig || !reflect.DeepEqual(e.Vals, model[k]) {
			t.Fatalf("record %d = %+v, want %v %v", i, e, k, model[k])
		}
		if got, ok := c.get(k.backend, k.epoch, k.sig); !ok || !reflect.DeepEqual(got, model[k]) {
			t.Fatalf("get %v = %v, %v", k, got, ok)
		}
	}
	if _, ok := c.get("gpu/x", 1, 1<<40); ok {
		t.Error("absent signature found")
	}
	if _, ok := c.get("nope", 1, order[0].sig); ok {
		t.Error("absent backend found")
	}

	// Overwrite, as WAL replay does: same width in place, new width
	// re-stored.
	k := order[0]
	for _, vals := range [][]float64{make([]float64, len(model[k])), {7, 8, 9, 10}} {
		for j := range vals {
			vals[j] = float64(j) + 0.5
		}
		if isNew, err := c.put(k.backend, k.epoch, k.sig, vals, true); err != nil || isNew {
			t.Fatalf("overwrite: new=%v err=%v", isNew, err)
		}
		model[k] = vals
		if got, _ := c.get(k.backend, k.epoch, k.sig); !reflect.DeepEqual(got, vals) {
			t.Fatalf("after overwrite get = %v, want %v", got, vals)
		}
	}

	checkSorted := func() {
		t.Helper()
		var want []Entry
		for k, v := range model {
			want = append(want, Entry{Backend: k.backend, Epoch: k.epoch, Sig: k.sig, Vals: v})
		}
		SortEntries(want)
		var got []Entry
		if err := c.sorted(func(e Entry) error { got = append(got, e); return nil }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sorted: %d entries, want %d (or order differs)", len(got), len(want))
		}
	}
	checkSorted()

	retired := c.retire(func(backend string, epoch uint64) bool { return backend == "gpu/x" && epoch == 2 })
	dropped := 0
	for k := range model {
		if k.backend == "gpu/x" && k.epoch == 2 {
			delete(model, k)
			dropped++
		}
	}
	if retired != dropped || dropped == 0 || c.live != len(model) {
		t.Fatalf("retired %d, want %d (live %d, model %d)", retired, dropped, c.live, len(model))
	}
	for _, k := range order {
		_, want := model[k]
		if _, ok := c.get(k.backend, k.epoch, k.sig); ok != want {
			t.Fatalf("after retire, get %v present=%v, want %v", k, ok, want)
		}
	}
	checkSorted()
}

func TestContentsRejectsBadVectors(t *testing.T) {
	c := newContents()
	for _, vals := range [][]float64{nil, make([]float64, maxVals+1)} {
		if _, err := c.put("b", 1, 1, vals, false); err == nil {
			t.Errorf("put of %d values accepted", len(vals))
		}
	}
	for i := 0; i < maxCols; i++ {
		if _, err := c.put(fmt.Sprint("b", i), 1, 1, []float64{1}, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.put("one-too-many", 1, 1, []float64{1}, false); err == nil {
		t.Error("column past the interning limit accepted")
	}
}
