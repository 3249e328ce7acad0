package booters

import (
	"fmt"

	"booters/internal/dataset"
	"booters/internal/ingest"
	"booters/internal/scenario"
	"booters/internal/serve"
)

// GenerateScenario resolves a scenario spec — a catalog name from
// scenario.Names (e.g. "takedown-sharp") or the path of a JSON config
// file — and generates the run: the packet stream(s), the optional
// scrape-event stream, and the manifest recording the injected ground
// truth the pipeline must reproduce. Deterministic for a given spec.
// See docs/SCENARIOS.md for the config format and the primitive catalog.
func GenerateScenario(spec string) (*scenario.Run, error) {
	cfg, err := scenario.Load(spec)
	if err != nil {
		return nil, err
	}
	return scenario.Generate(cfg)
}

// ReplayScenario replays the run's delivery stream — the hostile twin
// when one was generated, the clean stream otherwise — through a fresh
// pipeline over the scenario span and returns the closed result. For
// reordered hostile streams the pipeline is order-tolerant and fed from
// a low-watermark source lagged by the run's reorder bound, exactly how
// a live collector would absorb the same traffic. Assert the outcome
// against the run's manifest: Manifest.VerifyPanel for the weekly panel,
// Manifest.Fit + VerifyFit for intervention recovery.
func ReplayScenario(run *scenario.Run, shards int, sinks ...ingest.Sink) (*ingest.Result, error) {
	in, err := ingest.New(ingest.Config{
		Shards:    shards,
		Start:     run.Config.Start,
		End:       run.Config.End(),
		Sinks:     sinks,
		Unordered: run.RequiresUnordered(),
	})
	if err != nil {
		return nil, err
	}
	if err := in.Feed(run.Stream(), false, run.WatermarkLag()); err != nil {
		in.Close()
		return nil, err
	}
	return in.Close()
}

// ServeScenario is Serve with the scenario manifest's injected
// interventions as the model catalogue instead of the paper's Table 1,
// so /v1/model queries over the scenario span fit — and should recover —
// the run's ground-truth effects. The ingestor must be rolling and sized
// to the scenario span (ingest.Config.Rolling over Manifest.Start to
// Manifest.End, or a collector built that way). It reads nothing from
// disk; to serve a recorded spool, pass its directory to Serve, which
// fits the manifest recorded next to the segments.
func ServeScenario(in *ingest.Ingestor, addr string, m *scenario.Manifest) (*serve.Server, error) {
	return serveWith(in, addr, "", m.Interventions())
}

// ScenarioPanel bridges a scenario's completed ingest result into a
// dataset.Panel over the scenario span. Unlike PanelFromIngest, the
// self-report side is not left empty: when the run carries a scrape
// stream, the events are folded through a scenario.ScrapeCollector —
// the same consumer a live scrape feed drives — into the panel's
// booter self-report side, churn series included.
func ScenarioPanel(run *scenario.Run, res *ingest.Result) (*dataset.Panel, error) {
	p := PanelFromIngest(res)
	if run.Scrape != nil {
		col := scenario.NewScrapeCollector()
		for _, ev := range run.Scrape {
			if err := col.Observe(ev); err != nil {
				return nil, fmt.Errorf("booters: scenario scrape stream: %w", err)
			}
		}
		p.SelfReport = col.Panel(run.Manifest.StartWeek())
	}
	return p, nil
}
