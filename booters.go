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
//   - internal/dataset     — the calibrated synthetic dataset generator
//   - internal/interventions — the catalogue of §2 police actions
//   - internal/report      — table and figure renderers
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
	"fmt"

	"booters/internal/dataset"
	"booters/internal/geo"
	"booters/internal/glm"
	"booters/internal/interventions"
	"booters/internal/its"
	"booters/internal/stats"
	"booters/internal/timeseries"
)

// DefaultSeed is the seed used throughout the documentation and the
// benchmark harness, so every reported number is reproducible.
const DefaultSeed int64 = 20191021 // IMC'19 began October 21, 2019

// GeneratePanel builds the reproduction dataset: the five-year weekly panel
// of reflected-UDP attack counts (global / per country / per protocol) plus
// the simulated booter self-report panel.
func GeneratePanel(seed int64) (*dataset.Panel, error) {
	return dataset.Generate(dataset.DefaultConfig(seed))
}

// Table1Interventions returns the five globally significant interventions
// with the effect windows of the paper's Table 1 model (dates from §2,
// durations from Table 2's "Overall" column, Webstresser lagged a
// fortnight).
func Table1Interventions() []its.Intervention {
	find := func(name string) interventions.Event {
		ev, ok := interventions.ByName(name)
		if !ok {
			panic(fmt.Sprintf("booters: intervention %q missing from catalogue", name))
		}
		return ev
	}
	return []its.Intervention{
		{Name: "Xmas2018", Start: find("Xmas2018").Date, Weeks: 10},
		{Name: "Webstresser", Start: find("Webstresser").Date, Weeks: 3, LagWeeks: 2},
		{Name: "Mirai", Start: find("Mirai").Date, Weeks: 8},
		{Name: "HackForums", Start: find("HackForums").Date, Weeks: 13},
		{Name: "vDOS", Start: find("vDOS").Date, Weeks: 3},
	}
}

// ModelWindow returns the paper's regression window (June 2016 - April
// 2019) as a pair of weeks for slicing a series.
func ModelWindow() (from, to timeseries.Week) {
	return timeseries.WeekOf(dataset.ModelStart), timeseries.WeekOf(dataset.SpanEnd)
}

// FitGlobalModel fits the paper's Table 1 model: NB2 regression of the
// global weekly series over the model window on the five intervention
// dummies, eleven monthly seasonals, the Easter dummy, a linear trend and a
// constant. Each intervention's window duration is chosen by maximizing the
// log-likelihood (the paper: "fitting for optimum log-pseudolikelihood"),
// starting from the Table 2 "Overall" durations.
func FitGlobalModel(p *dataset.Panel) (*its.Model, error) {
	from, to := ModelWindow()
	s := p.Global.Slice(from, to)
	return its.SearchAllDurations(s, its.DefaultSpec(Table1Interventions()), 3)
}

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
	series, ok := p.ByCountry[country]
	if !ok {
		return nil, fmt.Errorf("booters: no series for country %q", country)
	}
	from, to := ModelWindow()
	s := series.Slice(from, to)
	ivs := Table1Interventions()
	if country == geo.NL {
		for i := range ivs {
			if ivs[i].Name == "Webstresser" {
				ivs[i].LagWeeks = 0
				ivs[i].Weeks = 4
			}
		}
	}
	// Per-country durations differ (Table 2 reports them separately); fit
	// each by likelihood search as for the global model.
	return its.SearchAllDurations(s, its.DefaultSpec(ivs), 3)
}

// AnalysisResult bundles the paper's core quantitative outputs.
type AnalysisResult struct {
	// Panel is the dataset analysed.
	Panel *dataset.Panel
	// Global is the Table 1 model.
	Global *its.Model
	// PerCountry maps each Table 2 country to its model.
	PerCountry map[string]*its.Model
}

// Analyze runs the global and per-country models.
func Analyze(p *dataset.Panel) (*AnalysisResult, error) {
	g, err := FitGlobalModel(p)
	if err != nil {
		return nil, fmt.Errorf("booters: global model: %w", err)
	}
	res := &AnalysisResult{Panel: p, Global: g, PerCountry: make(map[string]*its.Model)}
	for _, c := range geo.Table2Countries() {
		m, err := FitCountryModel(p, c)
		if err != nil {
			return nil, fmt.Errorf("booters: country model %s: %w", c, err)
		}
		res.PerCountry[c] = m
	}
	return res, nil
}

// DetectInterventions runs the paper's discovery procedure on the global
// series: fit the seasonal-trend baseline, find candidate drop windows, and
// match them against the §2 event catalogue. It returns the candidates and,
// aligned with them, the matched catalogue event names ("" when unmatched).
func DetectInterventions(p *dataset.Panel) ([]its.Candidate, []string, error) {
	from, to := ModelWindow()
	s := p.Global.Slice(from, to)
	cands, err := its.DetectDrops(s, glm.NegativeBinomial, 1.0, 2)
	if err != nil {
		return nil, nil, err
	}
	var events []its.Intervention
	var names []string
	for _, ev := range interventions.Catalogue() {
		events = append(events, its.Intervention{Name: ev.Name, Start: ev.Date})
		names = append(names, ev.Name)
	}
	matched := its.MatchCandidates(cands, events, 3)
	out := make([]string, len(cands))
	for i, m := range matched {
		if m >= 0 {
			out[i] = names[m]
		}
	}
	return cands, out, nil
}

// NCAComparison holds the Figure 5 analysis: UK and US weekly series
// indexed to 100 at June 2016, and linear trend slopes before and during
// the NCA advertising campaign.
type NCAComparison struct {
	// UK and US are the indexed weekly series.
	UK, US *timeseries.Series
	// PreUKSlope and PreUSSlope are the Jan-Dec 2017 linear slopes of the
	// indexed series.
	PreUKSlope, PreUSSlope float64
	// CampaignUKSlope and CampaignUSSlope are the slopes during the NCA
	// window (late Dec 2017 - June 2018).
	CampaignUKSlope, CampaignUSSlope float64
}

// AnalyzeNCA reproduces the Figure 5 comparison. The paper reports pre
// slopes of 3.2 (UK) and 5.3 (US) and campaign slopes of -0.1 (UK) versus
// 6.8 (US): the UK trend flattens while the US keeps rising.
func AnalyzeNCA(p *dataset.Panel) (*NCAComparison, error) {
	from, to := ModelWindow()
	uk, ok := p.ByCountry[geo.UK]
	if !ok {
		return nil, fmt.Errorf("booters: no UK series")
	}
	us, ok := p.ByCountry[geo.US]
	if !ok {
		return nil, fmt.Errorf("booters: no US series")
	}
	ukIdx := uk.Slice(from, to)
	usIdx := us.Slice(from, to)
	ukIdx.Rescale(100)
	usIdx.Rescale(100)

	slice := func(s *timeseries.Series, a, b timeseries.Week) []float64 {
		return s.Slice(a, b).Values
	}
	nca, ok := interventions.ByName("NCAAds")
	if !ok {
		return nil, fmt.Errorf("booters: NCAAds missing from catalogue")
	}
	preFrom := timeseries.WeekOf(mustDate(2017, 1, 2))
	preTo := timeseries.WeekOf(mustDate(2017, 12, 18))
	campFrom := timeseries.WeekOf(nca.Date)
	// The campaign ran to June 2018, but the Webstresser takedown (24
	// April) cuts a transient dip into both series mid-campaign; the slope
	// comparison uses the clean pre-Webstresser segment so it measures the
	// campaign, not the takedown.
	campTo := timeseries.WeekOf(mustDate(2018, 4, 23))

	out := &NCAComparison{UK: ukIdx, US: usIdx}
	_, out.PreUKSlope = stats.LinearTrend(slice(ukIdx, preFrom, preTo))
	_, out.PreUSSlope = stats.LinearTrend(slice(usIdx, preFrom, preTo))
	_, out.CampaignUKSlope = stats.LinearTrend(slice(ukIdx, campFrom, campTo))
	_, out.CampaignUSSlope = stats.LinearTrend(slice(usIdx, campFrom, campTo))
	return out, nil
}
