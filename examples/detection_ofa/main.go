// Detection backbone demo: the DETR-family detectors put 80+% of their
// FLOPs in the ResNet-50 backbone (Section III-B), so the paper modulates
// that CNN with Once-For-All subnets (Section V-C). This example profiles
// the detectors across image sizes and replays OFA switching on
// accelerator E.
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
	// 1. Where do detection FLOPs go? (Fig. 1)
	fmt.Fprintln(w, "DETR-family FLOP split at detection image sizes:")
	for _, v := range []vitdyn.DETRVariant{vitdyn.DETR, vitdyn.DABDETR, vitdyn.AnchorDETR, vitdyn.ConditionalDETR} {
		g, err := vitdyn.NewDETR(v, 800, 1216)
		if err != nil {
			return err
		}
		p := vitdyn.ProfileFLOPs(g, 1)
		fmt.Fprintf(w, "  %-17s %5.1f GFLOPs, conv share %.0f%%\n", v, p.GFLOPs(), 100*p.ConvShare())
	}

	// 2. The OFA ResNet-50 ladder on accelerator E (Fig. 13).
	cat, _, err := vitdyn.BuildRDDCatalog(context.Background(), vitdyn.CatalogSpec{Family: "ofa"}, vitdyn.TargetAcceleratorEEnergy())
	if err != nil {
		return err
	}
	full := cat.Full()
	fmt.Fprintf(w, "\nOFA ResNet-50 subnets on accelerator E (energy-costed):\n")
	for i := len(cat.Paths) - 1; i >= 0; i-- {
		p := cat.Paths[i]
		fmt.Fprintf(w, "  %-18s %6.3f mJ (%4.0f%% saved)  top-1 %.4f (-%.2f%%)\n",
			p.Label, p.Cost, 100*(1-p.Cost/full.Cost), p.Accuracy, 100*(full.Accuracy-p.Accuracy))
	}

	// 3. Dynamic backbone switching under a contended energy budget.
	frames := 2000
	tr := vitdyn.BurstyTrace(frames, full.Cost*0.45, full.Cost*1.05, 0.35, 99)
	dyn := cat.Simulate(tr)
	stat := vitdyn.SimulateStaticPath(full, tr)
	fmt.Fprintf(w, "\nbursty energy budget over %d frames:\n", frames)
	fmt.Fprintf(w, "  dynamic OFA switching: eff top-1 %.4f, 0 skipped\n", dyn.EffectiveAccuracy())
	fmt.Fprintf(w, "  static full backbone:  eff top-1 %.4f, %d frames skipped\n",
		stat.EffectiveAccuracy(), stat.Skipped)
	return nil
}
