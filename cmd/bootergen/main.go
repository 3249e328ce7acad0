// Command bootergen generates the reproduction's synthetic datasets and
// writes them as CSV: the weekly global/per-country/per-protocol panel and
// the booter self-report panel. With -scenario it instead generates a
// named (or config-file) scenario workload, replays it through the batch
// pipeline, and writes the same CSVs plus the scenario's ground-truth
// manifest. To record a scenario to an on-disk spool instead, use
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
side. The files feed external analyses or the externaldata example's
load-your-own-data workflow.

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
	logs, err := obs.NewLog(os.Stderr, "")
	cli.Check(err)
	if sc.Spec != "" {
		run, err := sc.Generate(logs.Logger("gen"))
		cli.Check(err)
		cli.Check(os.MkdirAll(*out, 0o755))
		runScenario(run, *out)
		return
	}

	cli.Check(os.MkdirAll(*out, 0o755))
	p, err := dataset.Generate(dataset.DefaultConfig(*seed))
	cli.Check(err)
	writeCSVs(p, *out)
	fmt.Printf("wrote %s (%d weeks), %s (%d booters), %s\n",
		filepath.Join(*out, "weekly_panel.csv"), p.Weeks,
		filepath.Join(*out, "self_report.csv"), len(p.SelfReport.Sites),
		filepath.Join(*out, "market_churn.csv"))
}

// runScenario replays the scenario's clean stream through the batch
// pipeline, verifies the panel and the intervention fit against the
// manifest, and writes the CSVs and the ground-truth manifest.
func runScenario(run *scenario.Run, out string) {
	res, err := ingest.Batch(ingest.Config{
		Shards: 1,
		Start:  run.Config.Start,
		End:    run.Config.End(),
	}, run.Packets)
	cli.Check(err)
	m := run.Manifest
	cli.Check(cli.Verify(os.Stdout, m, res.Global))
	p, err := booters.ScenarioPanel(run, res)
	cli.Check(err)

	writeCSVs(p, out)
	manifestPath := filepath.Join(out, scenario.ManifestFile)
	cli.Check(m.WriteFile(manifestPath))
	fmt.Printf("wrote %s (%d weeks), %s\n",
		filepath.Join(out, "weekly_panel.csv"), p.Weeks, manifestPath)
	if p.SelfReport != nil {
		fmt.Printf("wrote %s (%d booters from %d scrape events), %s\n",
			filepath.Join(out, "self_report.csv"), len(p.SelfReport.Sites), len(run.Scrape),
			filepath.Join(out, "market_churn.csv"))
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
	cli.Check(err)
	if err := write(f); err != nil {
		f.Close()
		cli.Check(err)
	}
	cli.Check(f.Close())
}
