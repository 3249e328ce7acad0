// Command bootergen generates the reproduction's synthetic datasets and
// writes them as CSV: the weekly global/per-country/per-protocol panel and
// the booter self-report panel. With -scenario it instead generates a
// named (or config-file) scenario workload, replays it through the batch
// pipeline, and writes the same CSVs plus the scenario's ground-truth
// manifest.
//
// With -record DIR the scenario's wire-format datagrams are spooled to
// disk instead (optionally compressed with -compress lz4) for the
// record-once-replay-many workflow: replay the spool with
// booteringest -replay and verify against the manifest.json written next
// to the segments.
//
// Usage:
//
//	bootergen [-seed N] [-out DIR] [-scenario NAME|FILE|list]
//	bootergen -scenario NAME -record DIR [-compress CODEC]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"booters"
	"booters/internal/dataset"
	"booters/internal/ingest"
	"booters/internal/scenario"
	"booters/internal/spool"
)

const usageText = `bootergen generates the reproduction's synthetic datasets and writes them
as CSV: the weekly global, per-country and per-protocol attack panel from
the honeypot side, and the booter self-report panel from the scraping
side. The files feed external analyses or the externaldata example's
load-your-own-data workflow.

-scenario NAME|FILE swaps the paper-calibrated dataset for a scenario
workload (a catalog name, or a JSON config per docs/SCENARIOS.md): the
scenario's packet stream is replayed through the batch pipeline, the
panel is verified against the scenario's planned weekly counts, and
manifest.json records the injected ground truth (effect sizes, expected
NB2 coefficients with tolerances) next to the CSVs. The self-report CSVs
are then populated from the scenario's streaming scrape source, when the
scenario carries one. -scenario list prints the catalog.

-record DIR spools the scenario's wire-format datagrams to disk instead
of replaying them (-compress picks the spool block codec: none or lz4),
with the ground-truth manifest.json written next to the segments —
replay the spool with booteringest -replay DIR.

Usage:

  bootergen [-seed N] [-out DIR] [-scenario NAME|FILE|list]
  bootergen -scenario NAME -record DIR [-compress CODEC]

Flags:

`

func main() {
	log.SetFlags(0)
	log.SetPrefix("bootergen: ")
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), usageText)
		flag.PrintDefaults()
	}
	seed := flag.Int64("seed", 20191021, "generator seed")
	out := flag.String("out", ".", "output directory")
	scenarioFlag := flag.String("scenario", "", "generate a scenario workload: catalog name, config file, or list")
	recordDir := flag.String("record", "", "spool the scenario's wire-format datagrams to this directory and exit (requires -scenario)")
	compress := flag.String("compress", "none", "spool block codec for -record: none or lz4")
	flag.Parse()

	if *scenarioFlag == "list" {
		for _, name := range scenario.Names() {
			fmt.Printf("%-20s %s\n", name, scenario.Describe(name))
		}
		return
	}
	if *recordDir != "" && *scenarioFlag == "" {
		log.Fatal("-record requires -scenario (the CSV datasets carry no packet stream)")
	}
	if *recordDir == "" && *compress != "none" {
		log.Fatal("-compress only applies to -record")
	}
	if *recordDir != "" {
		recordScenario(*scenarioFlag, *recordDir, *compress)
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	if *scenarioFlag != "" {
		runScenario(*scenarioFlag, *out)
		return
	}

	p, err := dataset.Generate(dataset.DefaultConfig(*seed))
	if err != nil {
		log.Fatal(err)
	}
	writeCSVs(p, *out)
	fmt.Printf("wrote %s (%d weeks), %s (%d booters), %s\n",
		filepath.Join(*out, "weekly_panel.csv"), p.Weeks,
		filepath.Join(*out, "self_report.csv"), len(p.SelfReport.Sites),
		filepath.Join(*out, "market_churn.csv"))
}

// recordScenario generates the named scenario and spools its wire-format
// datagrams to dir under the chosen codec, with the ground-truth manifest
// written next to the segments (segment discovery filters on the .seg
// extension, so the extra file is inert to replay).
func recordScenario(spec, dir, compress string) {
	codec, err := spool.CodecByName(compress)
	if err != nil {
		log.Fatal(err)
	}
	run, err := booters.GenerateScenario(spec)
	if err != nil {
		log.Fatal(err)
	}
	m := run.Manifest
	fmt.Printf("scenario %s: %d packets (%d attacks, %d scans) over %d weeks\n",
		m.Name, m.Packets, m.Attacks, m.Scans, m.Weeks)

	w, err := spool.Create(dir, spool.Options{Codec: codec})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	for _, d := range ingest.Datagrams(run.Packets) {
		if err := w.Append(d); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	manifestPath := filepath.Join(dir, "manifest.json")
	if err := m.WriteFile(manifestPath); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("recorded %d datagrams to %s in %v (%.0f datagrams/sec, codec %s)\n",
		w.Count(), dir, elapsed.Round(time.Millisecond),
		float64(w.Count())/elapsed.Seconds(), codec.Name())
	fmt.Printf("wrote %s; replay with: booteringest -replay %s\n", manifestPath, dir)
}

// runScenario generates the named scenario, replays it through the batch
// pipeline, verifies the panel against the plan, and writes the CSVs and
// the ground-truth manifest.
func runScenario(spec, out string) {
	run, err := booters.GenerateScenario(spec)
	if err != nil {
		log.Fatal(err)
	}
	m := run.Manifest
	fmt.Printf("scenario %s: %d packets (%d attacks, %d scans) over %d weeks\n",
		m.Name, m.Packets, m.Attacks, m.Scans, m.Weeks)

	res, err := ingest.Batch(ingest.Config{
		Shards: 1,
		Start:  run.Config.Start,
		End:    run.Config.End(),
	}, run.Packets)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.VerifyPanel(res.Global); err != nil {
		log.Fatal(err)
	}
	p, err := booters.ScenarioPanel(run, res)
	if err != nil {
		log.Fatal(err)
	}

	writeCSVs(p, out)
	manifestPath := filepath.Join(out, "manifest.json")
	if err := m.WriteFile(manifestPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d weeks), %s\n",
		filepath.Join(out, "weekly_panel.csv"), p.Weeks, manifestPath)
	if p.SelfReport != nil {
		fmt.Printf("wrote %s (%d booters from %d scrape events), %s\n",
			filepath.Join(out, "self_report.csv"), len(p.SelfReport.Sites), len(run.Scrape),
			filepath.Join(out, "market_churn.csv"))
	}

	// Report recovery for every effect the manifest asserts, so a
	// scenario run is a visible end-to-end check, not just files.
	assert := false
	for _, e := range m.Effects {
		if e.CoefTolerance > 0 {
			assert = true
		}
	}
	if assert {
		model, err := m.Fit(res.Global)
		if err != nil {
			log.Fatal(err)
		}
		if err := m.VerifyFit(model); err != nil {
			log.Fatal(err)
		}
		for _, e := range m.Effects {
			got, err := model.Effect(e.Name)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("effect %s: fitted %.4f vs injected %.4f (tolerance %.3f) — recovered\n",
				e.Name, got.Coef.Estimate, e.ExpectedCoef, e.CoefTolerance)
		}
	}
}

// writeCSVs writes the panel's CSV exports; the self-report files are
// skipped when the panel has no self-report side.
func writeCSVs(p *dataset.Panel, out string) {
	writeFile(filepath.Join(out, "weekly_panel.csv"), func(f *os.File) error {
		return dataset.WritePanelCSV(f, p)
	})
	if p.SelfReport == nil {
		return
	}
	writeFile(filepath.Join(out, "self_report.csv"), func(f *os.File) error {
		return dataset.WriteSelfReportCSV(f, p.SelfReport)
	})
	writeFile(filepath.Join(out, "market_churn.csv"), func(f *os.File) error {
		return dataset.WriteChurnCSV(f, p.SelfReport)
	})
}

// writeFile creates path, runs the writer, and fails the run on any error.
func writeFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}
