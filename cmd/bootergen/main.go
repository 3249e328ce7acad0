// Command bootergen generates the reproduction's synthetic datasets and
// writes them as CSV: the weekly global/per-country/per-protocol panel and
// the booter self-report panel, next to the paper world's ground-truth
// manifest. With -scenario it instead generates a named (or config-file)
// scenario workload, replays it through the batch pipeline, and writes
// the same CSVs plus the scenario's manifest. To record a scenario to an on-disk spool instead, use
// booteringest -scenario NAME -record DIR: it spools the delivery stream
// a live sensor would see (a scenario's hostile twin included) next to
// the manifest.
//
// Usage:
//
//	bootergen [-seed N] [-out DIR] [-scenario NAME|FILE|list]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"booters"
	"booters/internal/cli"
	"booters/internal/dataset"
	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/scenario"
)

const usageText = `bootergen generates the reproduction's synthetic datasets and writes them
as CSV: the weekly global, per-country and per-protocol attack panel from
the honeypot side, and the booter self-report panel from the scraping
side. manifest.json records the paper world's planted truth: the
per-country intervention effects, the planted weekly expectation and its
no-intervention counterfactual. The files feed external analyses or the
externaldata example's load-your-own-data workflow.

-scenario NAME|FILE swaps the paper-calibrated dataset for a scenario
workload (a catalog name, or a JSON config per docs/SCENARIOS.md): the
scenario's packet stream is replayed through the batch pipeline, the
panel is verified against the scenario's planned weekly counts, and
manifest.json records the injected ground truth (effect sizes, expected
NB2 coefficients with tolerances) next to the CSVs. The self-report CSVs
are then populated from the scenario's streaming scrape source, when the
scenario carries one. -scenario list prints the catalog. To record a
scenario to a spool, use booteringest -scenario NAME -record DIR.

Usage:

  bootergen [-seed N] [-out DIR] [-scenario NAME|FILE|list]

Flags:

`

func main() {
	cli.Init("bootergen", usageText)
	fs := flag.CommandLine
	seed := cli.Seed(fs)
	out := flag.String("out", ".", "output directory")
	sc := cli.ScenarioFlag(fs, "generate a scenario workload: catalog name, config file, or list")
	flag.Parse()

	if sc.List(os.Stdout) {
		return
	}
	cli.Check(cli.Only(fs, sc.Spec == "", "the paper-calibrated dataset (the scenario config fixes the workload)", "seed"))
	var (
		p   *dataset.Panel
		m   *scenario.Manifest
		err error
	)
	if sc.Spec != "" {
		p, m, err = replayScenario(sc)
	} else {
		p, m, err = scenario.GeneratePaper(*seed, false)
	}
	cli.Check(err)
	cli.Check(os.MkdirAll(*out, 0o755))
	write(p, m, *out)
}

// replayScenario generates the scenario, replays its clean stream
// through the batch pipeline, verifies the panel and the intervention fit
// against the manifest, and returns the panel with the manifest.
func replayScenario(sc *cli.Workload) (*dataset.Panel, *scenario.Manifest, error) {
	logs, err := obs.NewLog(os.Stderr, "")
	cli.Check(err)
	run, err := sc.Generate(logs.Logger("gen"))
	cli.Check(err)
	res, err := ingest.Batch(ingest.Config{Shards: 1, Start: run.Config.Start, End: run.Config.End()}, run.Packets)
	cli.Check(err)
	cli.Check(cli.Verify(os.Stdout, run.Manifest, res.Global))
	p, err := booters.ScenarioPanel(run, res)
	return p, run.Manifest, err
}

// write writes the panel's CSV exports and the ground-truth manifest; the
// self-report files are skipped when the panel has no self-report side.
func write(p *dataset.Panel, m *scenario.Manifest, out string) {
	panelPath := filepath.Join(out, "weekly_panel.csv")
	writeFile(panelPath, func(f *os.File) error {
		return dataset.WritePanelCSV(f, p)
	})
	manifestPath := filepath.Join(out, scenario.ManifestFile)
	cli.Check(m.WriteFile(manifestPath))
	fmt.Printf("wrote %s (%d weeks), %s\n", panelPath, p.Weeks, manifestPath)
	if p.SelfReport == nil {
		return
	}
	srPath, churnPath := filepath.Join(out, "self_report.csv"), filepath.Join(out, "market_churn.csv")
	writeFile(srPath, func(f *os.File) error {
		return dataset.WriteSelfReportCSV(f, p.SelfReport)
	})
	writeFile(churnPath, func(f *os.File) error {
		return dataset.WriteChurnCSV(f, p.SelfReport)
	})
	fmt.Printf("wrote %s (%d booters), %s\n", srPath, len(p.SelfReport.Sites), churnPath)
}

// writeFile creates path, runs the writer, and fails the run on any error.
func writeFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	cli.Check(err)
	if err := write(f); err != nil {
		f.Close()
		cli.Check(err)
	}
	cli.Check(f.Close())
}
