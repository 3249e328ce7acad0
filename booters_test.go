package booters

import (
	"math"
	"sync"
	"testing"
	"time"

	"booters/internal/dataset"
	"booters/internal/geo"
)

// sharedPanel generates the default panel once for the integration tests.
var (
	panelOnce sync.Once
	panelVal  *dataset.Panel
	panelErr  error
)

func testPanel(t *testing.T) *dataset.Panel {
	t.Helper()
	panelOnce.Do(func() {
		panelVal, panelErr = GeneratePanel(DefaultSeed)
	})
	if panelErr != nil {
		t.Fatalf("GeneratePanel: %v", panelErr)
	}
	return panelVal
}

func TestPanelShape(t *testing.T) {
	p := testPanel(t)
	if p.Weeks < 240 || p.Weeks > 260 {
		t.Errorf("panel covers %d weeks, want ~248 (five years)", p.Weeks)
	}
	for _, c := range geo.Countries() {
		if p.Country(c) == nil {
			t.Errorf("missing country series %s", c)
		}
	}
	// Global series is strictly positive and in a plausible range.
	for i, v := range p.Global.Values {
		if v <= 0 {
			t.Fatalf("week %d: non-positive global count %v", i, v)
		}
	}
	if mean := p.Global.Total() / float64(p.Weeks); mean < 20000 || mean > 300000 {
		t.Errorf("mean weekly attacks %v outside plausible range", mean)
	}
}

func TestGlobalModelRecoversTable1(t *testing.T) {
	p := testPanel(t)
	m, err := FitGlobalModel(p)
	if err != nil {
		t.Fatal(err)
	}
	// Every modelled intervention must come out as a significant drop, and
	// its estimate must match the exact planted ground truth over the
	// fitted window (computed from the generator's counterfactual).
	for _, name := range []string{"Xmas2018", "Webstresser", "Mirai", "HackForums", "vDOS"} {
		eff, err := m.Effect(name)
		if err != nil {
			t.Fatal(err)
		}
		if !eff.Significant() {
			t.Errorf("%s: not significant (p = %.4f, mean %.1f%%)", name, eff.P, eff.Mean)
		}
		if eff.Mean >= 0 {
			t.Errorf("%s: recovered %+.1f%%, want a drop", name, eff.Mean)
		}
		truth, ok := testManifest(t).GroundTruthEffect(eff.Start, eff.Weeks)
		if !ok {
			t.Fatalf("%s: fitted window outside panel", name)
		}
		if math.Abs(eff.Mean-truth) > 10 {
			t.Errorf("%s: recovered %.1f%% over %d weeks, ground truth %.1f%%",
				name, eff.Mean, eff.Weeks, truth)
		}
	}
	// The trend must be positive and strongly significant (the paper's
	// time coefficient: +0.010 per week).
	tc, err := m.Fit.Coef("time")
	if err != nil {
		t.Fatal(err)
	}
	if tc.Estimate <= 0 || tc.P > 0.01 {
		t.Errorf("trend = %.5f (p=%.4g), want positive and significant", tc.Estimate, tc.P)
	}
	if tc.Estimate < 0.004 || tc.Estimate > 0.015 {
		t.Errorf("trend = %.5f, want in [0.004, 0.015] (paper: 0.010)", tc.Estimate)
	}
	// Shape: Xmas2018 and HackForums are the long interventions; vDOS and
	// Webstresser the short ones (paper durations 10 & 13 vs 3 & 3).
	long := map[string]bool{"Xmas2018": true, "HackForums": true}
	for _, eff := range m.Effects {
		if long[eff.Name] && eff.Weeks < 5 {
			t.Errorf("%s fitted duration %d weeks, want a long window", eff.Name, eff.Weeks)
		}
		if (eff.Name == "vDOS" || eff.Name == "Webstresser") && eff.Weeks > 6 {
			t.Errorf("%s fitted duration %d weeks, want a short window", eff.Name, eff.Weeks)
		}
	}
}

func TestCountryContrastsMatchTable2(t *testing.T) {
	p := testPanel(t)
	res, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	// France is not significantly affected by Xmas2018 (planted -1%).
	fr := res.PerCountry[geo.FR]
	frXmas, err := fr.Effect("Xmas2018")
	if err != nil {
		t.Fatal(err)
	}
	if frXmas.StronglySignificant() && math.Abs(frXmas.Mean) > 12 {
		t.Errorf("FR Xmas2018 = %.1f%% (p=%.3f), paper finds no effect", frXmas.Mean, frXmas.P)
	}
	// The Netherlands sees a large, significant INCREASE at Webstresser
	// (reprisals; planted +146%).
	nl := res.PerCountry[geo.NL]
	nlWeb, err := nl.Effect("Webstresser")
	if err != nil {
		t.Fatal(err)
	}
	if nlWeb.Mean < 50 {
		t.Errorf("NL Webstresser = %.1f%%, want a large increase", nlWeb.Mean)
	}
	if !nlWeb.Significant() {
		t.Errorf("NL Webstresser increase not significant (p=%.4f)", nlWeb.P)
	}
	// The US is hit harder than the UK by Xmas2018 (planted -49 vs -27).
	usXmas, _ := res.PerCountry[geo.US].Effect("Xmas2018")
	ukXmas, _ := res.PerCountry[geo.UK].Effect("Xmas2018")
	if usXmas.Mean >= ukXmas.Mean {
		t.Errorf("US Xmas2018 %.1f%% should be deeper than UK %.1f%%", usXmas.Mean, ukXmas.Mean)
	}
	// Russia shows no significant Mirai effect (planted -5%).
	ruMirai, _ := res.PerCountry[geo.RU].Effect("Mirai")
	if ruMirai.StronglySignificant() && ruMirai.Mean < -15 {
		t.Errorf("RU Mirai = %.1f%% (p=%.3f), paper finds no effect", ruMirai.Mean, ruMirai.P)
	}
}

func TestDetectInterventionsFindsModelledEvents(t *testing.T) {
	p := testPanel(t)
	cands, matches, err := DetectInterventions(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidate drops detected")
	}
	found := make(map[string]bool)
	for _, name := range matches {
		if name != "" {
			found[name] = true
		}
	}
	// The two largest planted drops must be discovered and matched.
	for _, want := range []string{"Xmas2018", "HackForums"} {
		if !found[want] {
			t.Errorf("detection did not recover %s; matched = %v", want, matches)
		}
	}
}

func TestNCAAnalysisFlattensUK(t *testing.T) {
	p := testPanel(t)
	nca, err := AnalyzeNCA(p)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-campaign both rise; during the campaign the UK flattens while
	// the US keeps rising (paper: UK slope 3.2 -> -0.1; US 5.3 -> 6.8).
	// The raw campaign window starts in high season (December) and ends in
	// low season (April), dragging both slopes down equally, so the clean
	// comparison is difference-in-differences: the UK slope must fall
	// relative to the US slope.
	if nca.PreUKSlope <= 0 {
		t.Errorf("pre-campaign UK slope %.2f, want positive", nca.PreUKSlope)
	}
	if nca.PreUSSlope <= 0 {
		t.Errorf("pre-campaign US slope %.2f, want positive", nca.PreUSSlope)
	}
	if nca.CampaignUSSlope <= 0 {
		t.Errorf("US campaign slope %.2f, want continued growth", nca.CampaignUSSlope)
	}
	if nca.CampaignUKSlope >= nca.CampaignUSSlope {
		t.Errorf("UK campaign slope %.2f should fall below US %.2f",
			nca.CampaignUKSlope, nca.CampaignUSSlope)
	}
	did := (nca.CampaignUKSlope - nca.PreUKSlope) - (nca.CampaignUSSlope - nca.PreUSSlope)
	if did > -0.3 {
		t.Errorf("difference-in-differences = %.2f, want clearly negative (UK flattened)", did)
	}
}

func TestSelfReportStructure(t *testing.T) {
	p := testPanel(t)
	sr := p.SelfReport
	if sr == nil {
		t.Fatal("no self-report panel")
	}
	if len(sr.Sites) < 50 {
		t.Errorf("only %d booters tracked, want a populous market", len(sr.Sites))
	}
	// Churn spikes: deaths in the Webstresser and Xmas2018 weeks must
	// exceed the background death rate.
	var webIdx, xmasIdx int
	webIdx = weeksFrom(sr.Start.Start.Year(), sr, 2018, 4, 24)
	xmasIdx = weeksFrom(sr.Start.Start.Year(), sr, 2018, 12, 19)
	var background float64
	var n int
	for i, c := range sr.Churn {
		if i == webIdx || i == xmasIdx {
			continue
		}
		background += float64(c.Deaths)
		n++
	}
	background /= float64(n)
	if float64(sr.Churn[webIdx].Deaths) < background+3 {
		t.Errorf("Webstresser week deaths = %d, background %.1f; want a spike",
			sr.Churn[webIdx].Deaths, background)
	}
	if float64(sr.Churn[xmasIdx].Deaths) < background+3 {
		t.Errorf("Xmas2018 week deaths = %d, background %.1f; want a spike",
			sr.Churn[xmasIdx].Deaths, background)
	}
	// Post-Xmas2018 concentration: the surviving market leader holds a
	// dominant share (paper: ~60%).
	share := sr.Market.TopShare(xmasIdx, xmasIdx+10)
	if share < 0.4 || share > 0.85 {
		t.Errorf("post-Xmas2018 top provider share = %.2f, want ~0.6", share)
	}
	preShare := sr.Market.TopShare(0, webIdx)
	if share <= preShare {
		t.Errorf("market should concentrate after Xmas2018: share %.2f <= pre %.2f", share, preShare)
	}
}

// mustDate builds a UTC midnight date.
func mustDate(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

// weeksFrom returns the week index of a date inside the self-report panel.
func weeksFrom(_ int, sr *dataset.SelfReportPanel, y, m, d int) int {
	target := mustDate(y, m, d)
	idx := int(target.Sub(sr.Start.Start).Hours() / (24 * 7))
	if idx < 0 || idx >= sr.Weeks {
		return 0
	}
	return idx
}

func TestSelfReportCorrelatesWithHoneypotData(t *testing.T) {
	p := testPanel(t)
	total := p.SelfReport.WeeklySelfReportTotal()
	// Align the global series to the self-report window.
	offset := int(total.StartWeek.Start.Sub(p.Start.Start).Hours() / (24 * 7))
	global := p.Global.Values[offset : offset+total.Len()]
	var a, b []float64
	// Skip the first week (no difference available) and any zero weeks.
	for i := 1; i < total.Len(); i++ {
		if total.Values[i] > 0 {
			a = append(a, total.Values[i])
			b = append(b, global[i])
		}
	}
	r := correlation(a, b)
	// The paper reports r = 0.47; we require a clearly positive link.
	if r < 0.3 {
		t.Errorf("self-report vs honeypot correlation = %.2f, want moderate positive", r)
	}
}

func TestTable3ShareShape(t *testing.T) {
	p := testPanel(t)
	// At Feb 2017 the China surge spikes CN's share (the paper's Table 3
	// shows 16% -> 55% -> 12%; the reproduction scales the surge down so
	// the one-off hump does not swamp the Table 1 baseline, see
	// scenario's chinaSurge — but the spike-and-fall shape must hold) and the
	// double counting pushes the column total above 100%.
	s16 := CountrySharesAt(p, 2016, 2)
	s17 := CountrySharesAt(p, 2017, 2)
	s18 := CountrySharesAt(p, 2018, 2)
	if s17[geo.CN] < 1.6*s16[geo.CN] {
		t.Errorf("Feb-17 CN share %.0f%% should spike above 1.6x Feb-16 (%.0f%%)", s17[geo.CN], s16[geo.CN])
	}
	if s18[geo.CN] > 0.6*s17[geo.CN] {
		t.Errorf("Feb-18 CN share %.0f%% should fall back from the Feb-17 spike (%.0f%%)", s18[geo.CN], s17[geo.CN])
	}
	var total float64
	for _, v := range s17 {
		total += v
	}
	if total <= 100 {
		t.Errorf("Feb-17 share total = %.0f%%, want > 100%% (double counting)", total)
	}
	// At Feb 2019 the US dominates again (paper: 47%).
	s19 := CountrySharesAt(p, 2019, 2)
	if s19[geo.US] < 30 {
		t.Errorf("Feb-19 US share = %.0f%%, want dominant", s19[geo.US])
	}
	if s19[geo.CN] > s19[geo.US] {
		t.Errorf("Feb-19 CN share %.0f%% should be below US %.0f%%", s19[geo.CN], s19[geo.US])
	}
}

func TestProtocolShapesMatchFigure6(t *testing.T) {
	p := testPanel(t)
	ldap := p.Protocol(protoByName(t, "LDAP"))
	ntp := p.Protocol(protoByName(t, "NTP"))
	// LDAP grows: 2018 total far exceeds 2016 total.
	y2016 := yearTotal(ldap, 2016)
	y2018 := yearTotal(ldap, 2018)
	if y2018 < 3*y2016 {
		t.Errorf("LDAP 2018 (%.0f) should dwarf 2016 (%.0f)", y2018, y2016)
	}
	// NTP's share declines over the same span.
	ntpShare2016 := yearTotal(ntp, 2016) / yearTotal(p.Global, 2016)
	ntpShare2018 := yearTotal(ntp, 2018) / yearTotal(p.Global, 2018)
	if ntpShare2018 >= ntpShare2016 {
		t.Errorf("NTP share should fall: 2016 %.3f -> 2018 %.3f", ntpShare2016, ntpShare2018)
	}
}
