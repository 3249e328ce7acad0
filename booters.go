// Package booters is a reproduction, as a Go library, of "Booting the
// Booters: Evaluating the Effects of Police Interventions in the Market for
// Denial-of-Service Attacks" (Collier, Thomas, Clayton, Hutchings — IMC
// 2019).
//
// The paper measures how police interventions (court cases, arrests,
// website takedowns, a forum market closure, mass domain seizures, and a
// targeted advertising campaign) changed the volume of DoS attacks sold by
// "booter" services, using five years of reflected-UDP honeypot telemetry
// and eighteen months of booter self-reported attack counters, analysed
// with negative binomial interrupted-time-series regression.
//
// This package is the public facade. It wires together the internal
// substrates:
//
//   - internal/stats       — distributions, special functions, matrices, OLS,
//     heteroskedasticity and normality tests
//   - internal/glm         — Poisson and NB2 regression (MLE via IRLS +
//     profile likelihood)
//   - internal/timeseries  — weekly series, seasonal design, Easter
//   - internal/its         — interrupted-time-series intervention analysis
//   - internal/protocols   — the ten UDP amplification protocols, with real
//     wire-format codecs
//   - internal/honeypot    — sensor fleet, flow aggregation, attack/scan
//     classification
//   - internal/ingest      — sharded streaming ingestion: wire-format
//     datagrams to weekly attack series, concurrently and incrementally
//   - internal/serve       — live analytics serving: lock-free panel
//     snapshots from a rolling ingest, query engine and HTTP JSON API
//   - internal/geo         — victim-IP country attribution
//   - internal/market      — agent-based booter market simulator
//   - internal/scrape      — self-report collection and forgery screens
//   - internal/dataset     — the weekly attack and self-report panels,
//     their CSV exports and loader, the §3 coverage exhibit
//   - internal/scenario    — the one world model: the paper's calibrated
//     world (GeneratePaper) and the workload catalog, each with a
//     Manifest of its ground truth
//   - internal/interventions — the catalogue of §2 police actions
//   - internal/report      — table and figure renderers
//   - internal/core        — the paper's model definitions (Table 1
//     catalogue, model window, global and per-country fits, discovery,
//     NCA comparison, Table 3 shares) and one runner per exhibit; the
//     analysis functions below delegate to it
//
// Quick start:
//
//	panel, err := booters.GeneratePanel(booters.DefaultSeed)
//	// handle err
//	model, err := booters.FitGlobalModel(panel)
//	// handle err
//	for _, eff := range model.Effects {
//		fmt.Printf("%s: %.1f%% (p=%.4f)\n", eff.Name, eff.Mean, eff.P)
//	}
package booters

import (
	"booters/internal/core"
	"booters/internal/dataset"
	"booters/internal/its"
	"booters/internal/scenario"
	"booters/internal/timeseries"
)

// DefaultSeed is the seed used throughout the documentation and the
// benchmark harness, so every reported number is reproducible.
const DefaultSeed int64 = 20191021 // IMC'19 began October 21, 2019

// GeneratePanel builds the reproduction dataset: the five-year weekly panel
// of reflected-UDP attack counts (global / per country / per protocol) plus
// the simulated booter self-report panel. Its planted ground truth is the
// manifest scenario.GeneratePaper returns beside the same panel.
func GeneratePanel(seed int64) (*dataset.Panel, error) {
	p, _, err := scenario.GeneratePaper(seed, false)
	return p, err
}

// Table1Interventions returns the five globally significant interventions
// with the effect windows of the paper's Table 1 model (dates from §2,
// durations from Table 2's "Overall" column, Webstresser lagged a
// fortnight).
func Table1Interventions() []its.Intervention { return core.Table1Interventions() }

// ModelWindow returns the paper's regression window (June 2016 - April
// 2019) as a pair of weeks for slicing a series.
func ModelWindow() (from, to timeseries.Week) { return core.ModelWindow() }

// FitGlobalModel fits the paper's Table 1 model: NB2 regression of the
// global weekly series over the model window on the five intervention
// dummies, eleven monthly seasonals, the Easter dummy, a linear trend and a
// constant. Each intervention's window duration is chosen by maximizing the
// log-likelihood (the paper: "fitting for optimum log-pseudolikelihood"),
// starting from the Table 2 "Overall" durations.
func FitGlobalModel(p *dataset.Panel) (*its.Model, error) { return core.FitGlobal(p) }

// FitGlobalModelFixed fits the Table 1 model with the paper's reported
// window durations, without the likelihood search (used for ablation).
func FitGlobalModelFixed(p *dataset.Panel) (*its.Model, error) {
	from, to := ModelWindow()
	s := p.Global.Slice(from, to)
	return its.Fit(s, its.DefaultSpec(Table1Interventions()))
}

// FitCountryModel applies the overall model to one country's attack series
// (how Table 2 is produced: "we apply the overall model solely to the
// attacks against particular countries"). For the Netherlands the
// Webstresser window is un-lagged, since the reprisal spike begins
// immediately.
func FitCountryModel(p *dataset.Panel, country string) (*its.Model, error) {
	return core.FitCountry(p, country)
}

// AnalysisResult bundles the paper's core quantitative outputs: the
// panel, the Table 1 global model (Global) and the Table 2 per-country
// models (PerCountry).
type AnalysisResult = core.Env

// Analyze runs the global and per-country models.
func Analyze(p *dataset.Panel) (*AnalysisResult, error) { return core.NewEnvFromPanel(p) }

// DetectInterventions runs the paper's discovery procedure on the global
// series: fit the seasonal-trend baseline, find candidate drop windows, and
// match them against the §2 event catalogue. It returns the candidates and,
// aligned with them, the matched catalogue event names ("" when unmatched).
func DetectInterventions(p *dataset.Panel) ([]its.Candidate, []string, error) {
	return core.DetectInterventions(p)
}

// NCAComparison holds the Figure 5 analysis: UK and US weekly series
// indexed to 100 at June 2016, and linear trend slopes before (Jan-Dec
// 2017) and during the NCA advertising campaign.
type NCAComparison = core.NCAComparison

// AnalyzeNCA reproduces the Figure 5 comparison. The paper reports pre
// slopes of 3.2 (UK) and 5.3 (US) and campaign slopes of -0.1 (UK) versus
// 6.8 (US): the UK trend flattens while the US keeps rising.
func AnalyzeNCA(p *dataset.Panel) (*NCAComparison, error) { return core.AnalyzeNCA(p) }
