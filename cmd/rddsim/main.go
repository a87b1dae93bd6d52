// Command rddsim regenerates the paper's dynamic-inference experiments:
// Fig. 10 (SegFormer GPU tradeoff), Table III (named configurations),
// Fig. 11 (accelerator-E tradeoff), Fig. 12 (Swin), Fig. 13 (OFA
// switching), the headline claims, and an RDD trace-replay demo. Sweeps
// are costed by the concurrent engine in internal/engine; -workers
// bounds each sweep's pool (0 = GOMAXPROCS, 1 = sequential). With
// -exp all the six tables themselves fan out concurrently, and -cache N
// installs one process-wide cost store so overlapping experiments (the
// claims table re-runs the Fig. 10/11/13 sweeps) reuse each other's
// costed shapes. -stream-stats reports how many candidates the streaming
// catalog pipeline generated, pre-filtered before backend costing, costed
// and admitted (catalog-routed sweeps — e.g. -exp replay — stream; the
// figure sweeps price every candidate for their tradeoff tables).
//
// Usage:
//
//	rddsim -exp fig10|table3|fig11|fig12|fig13|claims|all [-csv] [-workers N] [-cache N] [-cache-path DIR] [-stream-stats] [-frontier-only]
//	rddsim -exp replay -trace bursty -frames 2000 [-hysteresis K]
//	rddsim -exp replay -trace-spec '{"kind":"bursty","frames":2000,"busy_frac":0.4,"seed":7}'
//	rddsim -exp replay -trace-spec '{"kind":"values-file","path":"load.csv"}'
//
// -trace-spec takes the same declarative TraceSpec JSON the vitdynd
// /v1/replay endpoint consumes (kinds sinusoid, step, bursty, values);
// specs that leave lo/hi unset replay on a catalog-relative budget
// scale. The plain -trace/-frames flags are shorthands for the
// equivalent specs. The values-file kind additionally loads a recorded
// per-frame load trace from a local CSV/newline file — file resolution
// is client-side by design; the server accepts only inline values.
// -hysteresis K adds a dynamic-hysteresis replay row whose controller
// only switches after the selector prefers a different path for K
// consecutive frames. -frontier-only renders the Fig. 10/11/12 tradeoff
// tables as their Pareto frontiers via the streaming pre-filter instead
// of sweeping every candidate. -cache-path makes the cost store durable
// (snapshot+WAL in DIR), so re-runs start warm.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"vitdyn/internal/core"
	"vitdyn/internal/engine"
	"vitdyn/internal/experiments"
	"vitdyn/internal/rdd"
	"vitdyn/internal/report"
	"vitdyn/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and streams; it
// returns the process exit code (factored out of main so tests can drive
// the whole binary in-process).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rddsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: fig10, table3, fig11, fig12, fig13, claims, replay, all")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	trace := fs.String("trace", "bursty", "replay trace: sinusoid, step, bursty")
	frames := fs.Int("frames", 2000, "replay frame count")
	traceSpec := fs.String("trace-spec", "", `replay trace as declarative JSON, e.g. '{"kind":"bursty","frames":2000,"busy_frac":0.4,"seed":7}' (overrides -trace/-frames; same format as /v1/replay)`)
	workers := fs.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	cache := fs.Int("cache", 0, "shared cost-store capacity in entries, reused across all experiments of this run (0 = per-sweep caches only)")
	cachePath := fs.String("cache-path", "", "durable cost-store directory (snapshot+WAL), warm-loaded at start and flushed at exit so -exp all re-runs start warm (implies a shared store of -cache capacity)")
	streamStats := fs.Bool("stream-stats", false, "report the streaming catalog pipeline's generated/prefiltered/costed/admitted counters on stderr after the run")
	frontierOnly := fs.Bool("frontier-only", false, "render the fig10/fig11/fig12 tradeoff tables as their Pareto frontiers via the streaming pre-filter instead of sweeping every candidate")
	hysteresis := fs.Int("hysteresis", 0, "replay: add a dynamic-hysteresis row that switches paths only after K consecutive frames prefer a different one (0 = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *hysteresis < 0 {
		// A negative K would silently behave like 0 (the row is simply not
		// added); reject it like any other malformed flag value.
		fmt.Fprintf(stderr, "rddsim: bad -hysteresis %d: want K >= 1 consecutive frames (0 = off)\n", *hysteresis)
		return 2
	}

	if *cachePath != "" {
		teardown, err := serve.InstallProcessCostDB(*cache, *cachePath, "rddsim", stderr)
		if err != nil {
			fmt.Fprintf(stderr, "rddsim: %v\n", err)
			return 1
		}
		defer teardown()
	} else if *cache > 0 {
		defer serve.InstallProcessStore(*cache, "rddsim", stderr)()
	}
	if *streamStats {
		// Deltas, not totals: in-process reruns (tests, library embedding)
		// must not see earlier runs' counters.
		before := engine.GlobalStreamStats()
		defer func() {
			st := engine.GlobalStreamStats()
			st.Prefiltered -= before.Prefiltered
			st.Generated -= before.Generated
			st.Costed -= before.Costed
			st.Admitted -= before.Admitted
			fmt.Fprintf(stderr, "rddsim: stream: %d generated, %d prefiltered (%.0f%% saved before costing), %d costed, %d admitted\n",
				st.Generated, st.Prefiltered, 100*st.PrefilterRate(), st.Costed, st.Admitted)
		}()
	}

	if *exp == "replay" {
		if err := replay(stdout, *trace, *traceSpec, *frames, *workers, *hysteresis); err != nil {
			fmt.Fprintf(stderr, "rddsim: %v\n", err)
			return 1
		}
		return 0
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"fig10", "table3", "fig11", "fig12", "fig13", "claims"}
	}
	// The experiments themselves fan out, bounded by the same -workers
	// budget as each inner sweep (so -workers 1 stays fully sequential);
	// tables render afterwards in the fixed experiment order, so output
	// is byte-identical to a sequential run.
	tables := make([]*report.Table, len(names))
	if err := engine.ForEach(*workers, len(names), func(i int) error {
		t, err := build(names[i], *workers, *frontierOnly)
		tables[i] = t
		return err
	}); err != nil {
		fmt.Fprintf(stderr, "rddsim: %v\n", err)
		return 1
	}
	for _, t := range tables {
		var renderErr error
		if *csv {
			renderErr = t.CSV(stdout)
		} else {
			renderErr = t.Render(stdout)
			fmt.Fprintln(stdout)
		}
		if renderErr != nil {
			fmt.Fprintf(stderr, "rddsim: %v\n", renderErr)
			return 1
		}
	}
	return 0
}

func build(name string, workers int, frontierOnly bool) (*report.Table, error) {
	switch name {
	case "fig10":
		if frontierOnly {
			rows, _, err := experiments.Fig10FrontierRows("ADE", workers)
			if err != nil {
				return nil, err
			}
			return experiments.RenderTradeoff("Fig 10 (ADE): GPU time vs mIoU (frontier only)", rows), nil
		}
		rows, err := experiments.Fig10SegFormerGPUTradeoff("ADE", workers)
		if err != nil {
			return nil, err
		}
		var keep []experiments.TradeoffRow
		for _, r := range rows {
			if r.Pareto || r.Source == "retrained" {
				keep = append(keep, r)
			}
		}
		return experiments.RenderTradeoff("Fig 10 (ADE): GPU time vs mIoU (Pareto + retrained)", keep), nil
	case "table3":
		rows, err := experiments.Table3SegFormerConfigs()
		if err != nil {
			return nil, err
		}
		return experiments.RenderTable3(rows), nil
	case "fig11":
		if frontierOnly {
			rows, _, err := experiments.Fig11FrontierRows(workers)
			if err != nil {
				return nil, err
			}
			return experiments.RenderTradeoff("Fig 11: accelerator E time/energy vs mIoU (frontier only)", rows), nil
		}
		rows, err := experiments.Fig11SegFormerAccelTradeoff(workers)
		if err != nil {
			return nil, err
		}
		return experiments.RenderTradeoff("Fig 11: accelerator E time/energy vs mIoU", rows), nil
	case "fig12":
		if frontierOnly {
			rows, _, err := experiments.Fig12FrontierRows(workers)
			if err != nil {
				return nil, err
			}
			return experiments.RenderFig12Titled("Fig 12: Swin pruning/switching tradeoff (GPU + accelerator E, frontier only)", rows), nil
		}
		rows, err := experiments.Fig12SwinTradeoff(workers)
		if err != nil {
			return nil, err
		}
		return experiments.RenderFig12(rows), nil
	case "fig13":
		rows, err := experiments.Fig13OFASwitching(workers)
		if err != nil {
			return nil, err
		}
		return experiments.RenderFig13(rows), nil
	case "claims":
		claims, err := experiments.HeadlineClaims(workers)
		if err != nil {
			return nil, err
		}
		return experiments.RenderClaims(claims), nil
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

// replaySpec resolves the -trace/-trace-spec flags into one TraceSpec —
// the same declarative format /v1/replay consumes. The legacy -trace
// shorthands map to their equivalent specs, so both routes replay
// identical traces.
func replaySpec(traceKind, traceSpecJSON string, frames int) (rdd.TraceSpec, error) {
	if traceSpecJSON != "" {
		var spec rdd.TraceSpec
		if err := json.Unmarshal([]byte(traceSpecJSON), &spec); err != nil {
			return rdd.TraceSpec{}, fmt.Errorf("bad -trace-spec: %v", err)
		}
		return spec, nil
	}
	switch traceKind {
	case "sinusoid":
		return rdd.TraceSpec{Kind: "sinusoid", Frames: frames, Period: 120}, nil
	case "step":
		return rdd.TraceSpec{Kind: "step", Frames: frames, Stride: 60}, nil
	case "bursty":
		return rdd.TraceSpec{Kind: "bursty", Frames: frames, BusyFrac: 0.4, Seed: 7}, nil
	}
	return rdd.TraceSpec{}, fmt.Errorf("unknown trace %q (want sinusoid, step, bursty, or -trace-spec JSON)", traceKind)
}

func replay(w io.Writer, traceKind, traceSpecJSON string, frames, workers, hysteresis int) error {
	// Parse the spec first: a malformed flag must fail instantly, not
	// after paying for the catalog sweep.
	spec, err := replaySpec(traceKind, traceSpecJSON, frames)
	if err != nil {
		return err
	}
	cat, _, err := core.Catalog(context.Background(), core.Spec{Family: "segformer", Dataset: "ADE", Step: 512}, core.TargetAcceleratorE(), workers)
	if err != nil {
		return err
	}
	// Specs without explicit budgets replay on a catalog-relative scale.
	spec = spec.WithBudgetScale(cat.DefaultBudgetScale())
	tr, err := spec.Build()
	if err != nil {
		return err
	}
	// An infeasible trace (even its peak budget below the cheapest path)
	// is an explicit error, not a silent all-skipped table.
	if _, err := cat.SelectStrict(tr.Max()); err != nil {
		return err
	}

	dyn := cat.Simulate(tr)
	stFull := cat.SimulateStatic(cat.Full(), tr)
	stWorst := cat.SimulateStatic(cat.Cheapest(), tr)

	t := report.NewTable(
		fmt.Sprintf("RDD replay: SegFormer ADE B2 on accelerator E, %s trace, %d frames", spec.Kind, len(tr)),
		"Policy", "Completed", "Skipped", "Switches", "MeanAcc", "EffAcc", "FullPath%")
	add := func(name string, r rdd.SimResult) {
		t.AddRowf(name, r.Completed, r.Skipped, r.Switches, r.MeanAccuracy, r.EffectiveAccuracy(), 100*r.FullPathShare)
	}
	add("dynamic (RDD)", dyn)
	if hysteresis > 0 {
		// The hysteretic controller only switches after `hysteresis`
		// consecutive frames prefer a different path — fewer swaps at a
		// small accuracy cost, for deployments where a path change is
		// not free.
		add(fmt.Sprintf("dynamic-hysteresis:%d", hysteresis), cat.SimulateHysteresis(tr, hysteresis))
	}
	add("static full", stFull)
	add("static worst-case", stWorst)
	return t.Render(w)
}
