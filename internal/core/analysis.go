package core

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

// Table1Interventions returns the five globally significant interventions
// with the effect windows of the paper's Table 1 model (dates from §2,
// durations from Table 2's "Overall" column, Webstresser lagged a
// fortnight).
func Table1Interventions() []its.Intervention {
	return []its.Intervention{
		{Name: "Xmas2018", Start: interventions.Date("Xmas2018"), Weeks: 10},
		{Name: "Webstresser", Start: interventions.Date("Webstresser"), Weeks: 3, LagWeeks: 2},
		{Name: "Mirai", Start: interventions.Date("Mirai"), Weeks: 8},
		{Name: "HackForums", Start: interventions.Date("HackForums"), Weeks: 13},
		{Name: "vDOS", Start: interventions.Date("vDOS"), Weeks: 3},
	}
}

// ModelWindow returns the paper's regression window (June 2016 - April
// 2019) as a pair of weeks for slicing a series.
func ModelWindow() (from, to timeseries.Week) {
	return timeseries.WeekOf(dataset.ModelStart), timeseries.WeekOf(dataset.SpanEnd)
}

// FitGlobal fits the paper's Table 1 model: NB2 regression of the global
// weekly series over the model window on the five intervention dummies,
// eleven monthly seasonals, the Easter dummy, a linear trend and a
// constant. Each intervention's window duration is chosen by maximizing
// the log-likelihood (the paper: "fitting for optimum
// log-pseudolikelihood"), starting from the Table 2 "Overall" durations.
func FitGlobal(p *dataset.Panel) (*its.Model, error) {
	from, to := ModelWindow()
	return its.SearchAllDurations(p.Global.Slice(from, to), its.DefaultSpec(Table1Interventions()), its.SearchRadius)
}

// FitCountry applies the overall model to one country's attack series
// (how Table 2 is produced: "we apply the overall model solely to the
// attacks against particular countries"), with per-country durations
// found by the same likelihood search. For the Netherlands the
// Webstresser window is un-lagged, since the reprisal spike begins
// immediately.
func FitCountry(p *dataset.Panel, country string) (*its.Model, error) {
	series := p.Country(country)
	if series == nil {
		return nil, fmt.Errorf("core: no series for country %q", country)
	}
	ivs := Table1Interventions()
	if country == geo.NL {
		for i := range ivs {
			if ivs[i].Name == "Webstresser" {
				ivs[i].LagWeeks = 0
				ivs[i].Weeks = 4
			}
		}
	}
	from, to := ModelWindow()
	return its.SearchAllDurations(series.Slice(from, to), its.DefaultSpec(ivs), its.SearchRadius)
}

// DetectInterventions runs the paper's discovery procedure on the global
// series: fit the seasonal-trend baseline, find candidate drop windows,
// and match them against the §2 event catalogue. It returns the
// candidates and, aligned with them, the matched catalogue event names
// ("" when unmatched).
func DetectInterventions(p *dataset.Panel) ([]its.Candidate, []string, error) {
	from, to := ModelWindow()
	cands, err := its.DetectDrops(p.Global.Slice(from, to), glm.NegativeBinomial, 1.0, 2)
	if err != nil {
		return nil, nil, err
	}
	var events []its.Intervention
	for _, ev := range interventions.Catalogue() {
		events = append(events, its.Intervention{Name: ev.Name, Start: ev.Date})
	}
	names := make([]string, len(cands))
	for i, m := range its.MatchCandidates(cands, events, 3) {
		if m >= 0 {
			names[i] = events[m].Name
		}
	}
	return cands, names, nil
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
	uk, us := p.Country(geo.UK), p.Country(geo.US)
	nca, ok := interventions.ByName("NCAAds")
	if !ok {
		return nil, fmt.Errorf("core: NCAAds missing from catalogue")
	}
	from, to := ModelWindow()
	out := &NCAComparison{UK: uk.Slice(from, to), US: us.Slice(from, to)}
	out.UK.Rescale(100)
	out.US.Rescale(100)

	slope := func(s *timeseries.Series, a, b timeseries.Week) float64 {
		_, m := stats.LinearTrend(s.Slice(a, b).Values)
		return m
	}
	preFrom := timeseries.WeekOf(mkdate(2017, 1, 2))
	preTo := timeseries.WeekOf(mkdate(2017, 12, 18))
	campFrom := timeseries.WeekOf(nca.Date)
	// The campaign ran to June 2018, but the Webstresser takedown (24
	// April) cuts a transient dip into both series mid-campaign; the slope
	// comparison uses the clean pre-Webstresser segment so it measures the
	// campaign, not the takedown.
	campTo := timeseries.WeekOf(mkdate(2018, 4, 23))
	out.PreUKSlope = slope(out.UK, preFrom, preTo)
	out.PreUSSlope = slope(out.US, preFrom, preTo)
	out.CampaignUKSlope = slope(out.UK, campFrom, campTo)
	out.CampaignUSSlope = slope(out.US, campFrom, campTo)
	return out, nil
}

// Table3Countries are the eight victim countries the paper's Table 3
// tabulates, in its row order.
var Table3Countries = []string{geo.US, geo.FR, geo.DE, geo.CN, geo.UK, geo.PL, geo.RU, geo.NL}

// Table3Years are the February snapshots the paper tabulates.
var Table3Years = []int{2015, 2016, 2017, 2018, 2019}

// CountrySharesAt computes each country's percentage share of globally
// observed attacks during the calendar month (year, month) — one column
// of the paper's Table 3. Because attacks can be attributed to more than
// one country, the shares may sum above 100%.
func CountrySharesAt(p *dataset.Panel, year, month int) map[string]float64 {
	first := mkdate(year, month, 1)
	from, to := timeseries.WeekOf(first), timeseries.WeekOf(first.AddDate(0, 1, 0))
	counts := make(map[string]float64, len(geo.Countries()))
	for _, c := range geo.Countries() {
		counts[c] = p.Country(c).Slice(from, to).Total()
	}
	return geo.Shares(counts, p.Global.Slice(from, to).Total())
}

// Table3 computes the full share table: country -> year -> percent
// share, for the Table 3 countries, using each year's February.
func Table3(p *dataset.Panel) map[string]map[int]float64 {
	out := make(map[string]map[int]float64, len(Table3Countries))
	for _, c := range Table3Countries {
		out[c] = make(map[int]float64, len(Table3Years))
	}
	for _, y := range Table3Years {
		shares := CountrySharesAt(p, y, 2)
		for _, c := range Table3Countries {
			out[c][y] = shares[c]
		}
	}
	return out
}
