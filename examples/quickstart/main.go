// Quickstart: build a model, profile its FLOPs, model its GPU latency,
// simulate it on the paper's accelerator E, and pick a dynamic execution
// path under a resource budget — the whole public API in one page.
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
	// 1. Build SegFormer ADE B2 at 512x512 (Table I's first row).
	g, err := vitdyn.NewSegFormer("B2", 150, 512, 512)
	if err != nil {
		return err
	}

	// 2. Analytical FLOPs profile (Section III-A).
	p := vitdyn.ProfileFLOPs(g, 1)
	fmt.Fprintf(w, "%s: %.1f GFLOPs, %.1fM params, %.0f%% of FLOPs in convolutions\n",
		g.Name, p.GFLOPs(), float64(p.TotalParams)/1e6, 100*p.ConvShare())
	for _, l := range p.Top(3) {
		fmt.Fprintf(w, "  %-18s %-8s %5.1f%% of FLOPs\n", l.Name, l.Kind, 100*l.Frac)
	}

	// 3. GPU latency model (Section III-C): FLOPs do not predict time.
	r := vitdyn.A5000().Run(g)
	fmt.Fprintf(w, "modeled A5000 latency: %.2f ms, convolutions only %.0f%% of time\n",
		r.Total*1e3, 100*r.ConvTimeShare())

	// 4. Accelerator E simulation (Section IV-C).
	ar, err := vitdyn.AcceleratorE().Simulate(g)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "accelerator E: %.2f ms, %.2f mJ, convolutions %.0f%% of energy\n",
		ar.TotalSeconds*1e3, ar.EnergyJ()*1e3, 100*ar.ConvEnergyShare())

	// 5. RDD inference (Section V): catalog of alternative paths built by
	// the concurrent sweep engine, then pick the best path for a 75%
	// resource budget.
	cat, _, err := vitdyn.BuildRDDCatalog(context.Background(), vitdyn.CatalogSpec{Family: "segformer", Dataset: "ADE", Step: 512}, vitdyn.TargetAcceleratorE())
	if err != nil {
		return err
	}
	budget := cat.Full().Cost * 0.75
	path, ok := cat.Select(budget)
	if !ok {
		return fmt.Errorf("no feasible path under budget %.2f", budget)
	}
	fmt.Fprintf(w, "budget %.2f ms -> run %q: %.2f ms at mIoU %.4f (full model: %.4f)\n",
		budget, path.Label, path.Cost, path.Accuracy, cat.Full().Accuracy)
	return nil
}
