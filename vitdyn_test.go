package vitdyn

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestPublicAPIEndToEnd walks the quickstart flow through the façade:
// build, profile, simulate, catalog, select.
func TestPublicAPIEndToEnd(t *testing.T) {
	g, err := NewSegFormer("B2", 150, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	p := ProfileFLOPs(g, 1)
	if gf := p.GFLOPs(); gf < 61 || gf > 65 {
		t.Errorf("GFLOPs = %.1f", gf)
	}
	if r := A5000().Run(g); r.Total <= 0 || r.ConvTimeShare() <= 0 {
		t.Error("GPU model failed")
	}
	ar, err := AcceleratorE().Simulate(g)
	if err != nil || ar.TotalSeconds <= 0 {
		t.Fatalf("accelerator simulation failed: %v", err)
	}
	cat, _, err := BuildRDDCatalog(context.Background(), CatalogSpec{Family: "segformer", Dataset: "ADE", Step: 1024}, TargetAcceleratorE())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cat.Select(cat.Full().Cost); !ok {
		t.Error("selection at full budget failed")
	}
	tr := StepTrace(100, cat.Cheapest().Cost, cat.Full().Cost, 10)
	if sim := cat.Simulate(tr); sim.Completed != 100 {
		t.Errorf("completed %d of 100 frames", sim.Completed)
	}
}

func TestPublicModelBuilders(t *testing.T) {
	if _, err := NewSwin("Tiny", 150, 512, 512); err != nil {
		t.Error(err)
	}
	if _, err := NewDETR(DETR, 800, 1216); err != nil {
		t.Error(err)
	}
	if _, err := NewResNet50(224, 224, true); err != nil {
		t.Error(err)
	}
	subs := OFASubnets()
	if len(subs) < 8 {
		t.Fatalf("OFA catalog size %d", len(subs))
	}
	if _, err := NewOFAResNet(subs[0], 224, 224); err != nil {
		t.Error(err)
	}
	if _, err := NewSegFormer("B9", 150, 512, 512); err == nil {
		t.Error("bad variant accepted")
	}
	if _, err := NewSwin("Huge", 150, 512, 512); err == nil {
		t.Error("bad variant accepted")
	}
}

func TestPublicPruningFlow(t *testing.T) {
	paths := TableIIIPaths()
	if len(paths) != 7 {
		t.Fatalf("Table III paths = %d", len(paths))
	}
	cfg := SegFormerConfig{}
	if _, err := ApplySegFormerPath(cfg, 512, 512, paths[0]); err == nil {
		t.Error("zero config accepted")
	}
	res := SegFormerADEResilience()
	if m := res.Pretrained(paths[6]); m < 0.33 || m > 0.34 {
		t.Errorf("B2f mIoU = %.4f, want 0.3345", m)
	}
	if SegFormerCityResilience().Baseline != 0.8098 {
		t.Error("City baseline wrong")
	}
}

func TestPublicAccelerators(t *testing.T) {
	if len(TableIIAccelerators()) != 13 {
		t.Error("Table II size")
	}
	if c, err := AcceleratorByName("G"); err != nil || c.WeightBufKB != 64 {
		t.Errorf("accelerator G lookup: %+v, %v", c, err)
	}
	if _, err := AcceleratorByName("Z"); err == nil {
		t.Error("bad name accepted")
	}
}

// TestPublicServingSurface walks the serving additions through the
// façade: a shared cost store across two engines, the HTTP server, and
// graceful Serve shutdown.
func TestPublicServingSurface(t *testing.T) {
	store := NewCostStore(512)
	ctx := context.Background()
	name, seq, err := CatalogCandidates(CatalogSpec{Family: "ofa"})
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := NewSweepEngineWithStore(TargetFLOPs(), 2, store).CatalogFromSeq(ctx, name, seq, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	coldStats := store.Stats()
	warm, _, err := NewSweepEngineWithStore(TargetFLOPs(), 2, store).CatalogFromSeq(ctx, name, seq, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warmStats := store.Stats()
	if warmStats.Misses != coldStats.Misses || warmStats.Hits <= coldStats.Hits {
		t.Errorf("second engine did not reuse the store: cold %+v, warm %+v", coldStats, warmStats)
	}
	if fmt.Sprint(cold.Paths) != fmt.Sprint(warm.Paths) {
		t.Error("store-served catalog diverged from cold build")
	}

	// The HTTP layer over the same store: /statsz must reflect the
	// engine traffic above.
	ts := httptest.NewServer(NewRDDServer(ServeOptions{Store: store, Workers: 2}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats struct {
		Store CostStoreStats `json:"store"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("statsz JSON: %v", err)
	}
	if stats.Store.Misses != warmStats.Misses {
		t.Errorf("statsz store snapshot %+v diverges from engine-side stats %+v", stats.Store, warmStats)
	}

	// The programmatic Serve entry point shuts down on cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, "127.0.0.1:0", ServeOptions{Store: store}) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v after cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not shut down")
	}
}

func TestPublicParetoAndReport(t *testing.T) {
	pts := []ParetoPoint{{Cost: 1, Value: 1, Tag: "a"}, {Cost: 2, Value: 0.5, Tag: "b"}}
	if f := ParetoFrontier(pts); len(f) != 1 || f[0].Tag != "a" {
		t.Errorf("frontier = %v", f)
	}
	tbl := NewReportTable("t", "x", "y")
	tbl.AddRowf("v", 1.5)
	if s := tbl.String(); s == "" {
		t.Error("empty render")
	}
}

func TestPublicPersistentCostStore(t *testing.T) {
	dir := t.TempDir()
	store := NewCostStore(0)
	db, err := OpenPersistentCostStore(dir, store, PersistentCostStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewSweepEngineWithCache(TargetFLOPs(), 2, db)
	g, err := NewResNet50(224, 224, true)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := eng.Cost(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the shape must price without a backend evaluation.
	db2, err := OpenPersistentCostStore(dir, NewCostStore(0), PersistentCostStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st := db2.Stats(); st.LoadedEntries == 0 {
		t.Fatalf("warm open loaded nothing: %+v", st)
	}
	before := BackendEvaluations()
	warm, err := NewSweepEngineWithCache(TargetFLOPs(), 2, db2).Cost(g)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Errorf("warm cost %v != cold %v", warm, cold)
	}
	if n := BackendEvaluations() - before; n != 0 {
		t.Errorf("warm cost ran %d backend evaluations, want 0", n)
	}
}

func TestPublicHysteresisAndValuesFile(t *testing.T) {
	b := NewParetoFrontierBuilder()
	b.Insert(ParetoPoint{Cost: 2, Value: 0.5, Tag: "small"})
	b.Insert(ParetoPoint{Cost: 8, Value: 0.9, Tag: "big"})
	cat, err := NewRDDCatalogFromBuilder("m", b)
	if err != nil {
		t.Fatal(err)
	}
	tr := BurstyTrace(1000, 2.5, 9, 0.5, 3)
	free := cat.Simulate(tr)
	damped := cat.SimulateHysteresis(tr, 4)
	if damped.Switches >= free.Switches {
		t.Errorf("hysteresis switches %d did not drop below %d", damped.Switches, free.Switches)
	}
	path := filepath.Join(t.TempDir(), "load.csv")
	if err := os.WriteFile(path, []byte("9\n3\n9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadValuesTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res := cat.Simulate(rec); res.Frames != 3 || res.Completed != 3 {
		t.Errorf("recorded replay %+v", res)
	}
}
