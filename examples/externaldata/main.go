// External data: the downstream-adoption workflow. Export the weekly panel
// to CSV, load it back as if it were your own measurement data, define a
// custom intervention window, fit the negative binomial interrupted time
// series model, and run the residual diagnostics and placebo robustness
// check.
//
// Swap the exported file for your own weekly counts (same CSV header) to
// analyse a different intervention with this library.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"booters"
	"booters/internal/dataset"
	"booters/internal/its"
)

func main() {
	log.SetFlags(0)

	// 1. Export: in a real deployment this is `bootergen` writing a file;
	// here the round trip stays in memory.
	source, err := booters.GeneratePanel(booters.DefaultSeed)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.WritePanelCSV(&buf, source); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %d weeks of CSV (%d bytes)\n", source.Weeks, buf.Len())

	// 2. Load it back as external data: like real measurements, a loaded
	// panel carries no planted truth and no self-report side.
	panel, err := dataset.LoadPanelCSV(&buf)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Define your own intervention windows and fit.
	ivs := []its.Intervention{
		{Name: "Xmas2018", Start: time.Date(2018, 12, 19, 0, 0, 0, 0, time.UTC), Weeks: 10},
		{Name: "HackForums", Start: time.Date(2016, 10, 28, 0, 0, 0, 0, time.UTC), Weeks: 13},
	}
	from, to := booters.ModelWindow()
	series := panel.Global.Slice(from, to)
	model, err := its.Fit(series, its.DefaultSpec(ivs))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfitted effects on the loaded data:")
	for _, eff := range model.Effects {
		fmt.Printf("  %-11s %6.1f%%  [%6.1f%%, %6.1f%%]  p=%.4f%s\n",
			eff.Name, eff.Mean, eff.Lower95, eff.Upper95, eff.P, eff.Stars())
	}

	// 4. Check the model is adequate before believing the estimates.
	diag, err := model.Diagnose()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndiagnostics: Ljung-Box Q(8)=%.1f p=%.3f, Pearson dispersion %.2f\n",
		diag.LjungBox.Stat, diag.LjungBox.P, diag.PearsonDispersion)

	// 5. Placebo robustness: is the Xmas2018 drop specific to its date?
	pt, err := its.PlaceboTest(series, its.DefaultSpec(ivs), "Xmas2018")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placebo check: observed coef %.3f ranks %d of %d placebo windows (p=%.3f)\n",
		pt.Observed, pt.Rank, len(pt.Placebos), pt.P)
	if pt.P < 0.05 {
		fmt.Println("=> the drop is specific to the intervention date")
	}
}
