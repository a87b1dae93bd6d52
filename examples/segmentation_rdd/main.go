// Segmentation RDD demo: an autonomous-driving-style scenario (the paper's
// Section I motivation) where a SegFormer segmentation model shares an
// embedded accelerator with other workloads. The resource budget per frame
// fluctuates; the RDD controller switches execution paths per frame and is
// compared against the two static alternatives the paper discusses.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"vitdyn"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the example, writing its narrative to w (separated from
// main so the example is testable in-process).
func run(w io.Writer) error {
	target := vitdyn.TargetAcceleratorE()

	// Pretrained pruning catalog (no retraining required: one set of
	// weights, subsets used at runtime — Section V-E).
	ctx := context.Background()
	pre, _, err := vitdyn.BuildRDDCatalog(ctx, vitdyn.CatalogSpec{Family: "segformer", Dataset: "ADE", Step: 256}, target)
	if err != nil {
		return err
	}
	// Retrained switching catalog (B0/B1/B2: three stored weight sets).
	ret, _, err := vitdyn.BuildRDDCatalog(ctx, vitdyn.CatalogSpec{Family: "segformer-retrained", Dataset: "ADE"}, target)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "pretrained catalog: %d Pareto paths, %.2f..%.2f ms, mIoU %.4f..%.4f\n",
		len(pre.Paths), pre.Cheapest().Cost, pre.Full().Cost,
		pre.Cheapest().Accuracy, pre.Full().Accuracy)
	fmt.Fprintf(w, "retrained catalog:  %d models,      %.2f..%.2f ms, mIoU %.4f..%.4f\n\n",
		len(ret.Paths), ret.Cheapest().Cost, ret.Full().Cost,
		ret.Cheapest().Accuracy, ret.Full().Accuracy)

	// Scenario: 30% of frames arrive while a planner burst holds the
	// accelerator, leaving ~55% of the budget.
	frames := 3000
	lo := pre.Full().Cost * 0.55
	hi := pre.Full().Cost * 1.10
	for _, tc := range []struct {
		name  string
		trace vitdyn.ResourceTrace
	}{
		{"sinusoid", vitdyn.SinusoidTrace(frames, lo, hi, 150)},
		{"step", vitdyn.StepTrace(frames, lo, hi, 75)},
		{"bursty", vitdyn.BurstyTrace(frames, lo, hi, 0.3, 1234)},
	} {
		dyn := pre.Simulate(tc.trace)
		retDyn := ret.Simulate(tc.trace)
		stFull := vitdyn.SimulateStaticPath(pre.Full(), tc.trace)
		stWorst := vitdyn.SimulateStaticPath(pre.Cheapest(), tc.trace)

		fmt.Fprintf(w, "trace %-9s dynamic(pretrained) eff-mIoU %.4f | dynamic(retrained) %.4f | static-full %.4f (skips %d) | static-worst %.4f\n",
			tc.name, dyn.EffectiveAccuracy(), retDyn.EffectiveAccuracy(),
			stFull.EffectiveAccuracy(), stFull.Skipped, stWorst.EffectiveAccuracy())
	}

	fmt.Fprintln(w, "\nThe dynamic policies dominate both static choices on every trace;")
	fmt.Fprintln(w, "retrained switching is the ceiling, pretrained pruning the floor (Section V-E).")
	return nil
}
