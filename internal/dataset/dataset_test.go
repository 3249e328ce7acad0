// Property tests of the paper world's panels, as generated by
// scenario.GeneratePaper, and of the planted truth its manifest records.
package dataset_test

import (
	"math"
	"testing"
	"time"

	"booters/internal/dataset"
	"booters/internal/geo"
	"booters/internal/protocols"
	"booters/internal/scenario"
	"booters/internal/stats"
	"booters/internal/timeseries"
)

// genWorld generates the paper world for seed, with or without
// observation noise.
func genWorld(t *testing.T, seed int64, noise bool) (*dataset.Panel, *scenario.Manifest) {
	t.Helper()
	p, m, err := scenario.GeneratePaper(seed, !noise)
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

func genPanel(t *testing.T, seed int64, noise bool) *dataset.Panel {
	t.Helper()
	p, _ := genWorld(t, seed, noise)
	return p
}

func mkdate(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func TestPanelInternalConsistency(t *testing.T) {
	p := genPanel(t, 5, true)
	// Global = sum of base country series before dual attribution; the
	// per-country series sum must EXCEED global (double counting).
	for w := 0; w < p.Weeks; w += 13 {
		var countrySum float64
		for _, c := range geo.Countries() {
			countrySum += p.Country(c).Values[w]
		}
		if countrySum <= p.Global.Values[w] {
			t.Errorf("week %d: country sum %.0f <= global %.0f", w, countrySum, p.Global.Values[w])
		}
	}
	// Protocol series sum to the global series (protocol split partitions
	// each country's count).
	for w := 0; w < p.Weeks; w += 13 {
		var protoSum float64
		for _, proto := range protocols.All() {
			protoSum += p.Protocol(proto).Values[w]
		}
		if math.Abs(protoSum-p.Global.Values[w]) > 1e-6*p.Global.Values[w]+1 {
			t.Errorf("week %d: protocol sum %.0f != global %.0f", w, protoSum, p.Global.Values[w])
		}
	}
	// CountryProtocol marginals match Country for the base countries
	// (before dual attribution all mass flows through protocol splits).
	for w := 0; w < p.Weeks; w += 31 {
		var sum float64
		for _, proto := range protocols.All() {
			sum += p.CountryProtocol(geo.CN, proto).Values[w]
		}
		if math.Abs(sum-p.Country(geo.CN).Values[w]) > 1 {
			t.Errorf("week %d: CN protocol marginal %.0f != CN series %.0f", w, sum, p.Country(geo.CN).Values[w])
		}
	}
}

func TestNoiseFreeMatchesTrueMu(t *testing.T) {
	p, m := genWorld(t, 6, false)
	for w := 0; w < p.Weeks; w++ {
		if math.Abs(p.Global.Values[w]-m.PlantedMu[w]) > 1e-6*m.PlantedMu[w] {
			t.Fatalf("week %d: noise-free global %.2f != TrueMu %.2f", w, p.Global.Values[w], m.PlantedMu[w])
		}
	}
}

func TestGroundTruthEffectWindows(t *testing.T) {
	_, m := genWorld(t, 7, false)
	// Inside the Xmas2018 window the planted effect is strongly negative.
	start := timeseries.WeekOf(mkdate(2018, time.December, 19))
	eff, ok := m.GroundTruthEffect(start, 8)
	if !ok {
		t.Fatal("window should be inside panel")
	}
	if eff > -20 || eff < -45 {
		t.Errorf("Xmas2018 planted window effect = %.1f%%, want around -30%%", eff)
	}
	// A quiet period has ~zero effect.
	quiet, ok := m.GroundTruthEffect(timeseries.WeekOf(mkdate(2017, time.June, 5)), 6)
	if !ok || math.Abs(quiet) > 0.5 {
		t.Errorf("quiet window effect = %.2f%%, want ~0", quiet)
	}
	// Out-of-range windows are rejected.
	if _, ok := m.GroundTruthEffect(timeseries.WeekOf(mkdate(2025, time.January, 1)), 4); ok {
		t.Error("accepted out-of-range window")
	}
	if _, ok := m.GroundTruthEffect(start, 0); ok {
		t.Error("accepted zero-length window")
	}
}

func TestSeasonalMultiplierMatchesTable1(t *testing.T) {
	// December is high season (+0.091 in Table 1), June low (-0.134).
	if scenario.SeasonalMultiplier(time.December) <= 1 {
		t.Error("December multiplier should exceed 1")
	}
	if scenario.SeasonalMultiplier(time.June) >= 1 {
		t.Error("June multiplier should be below 1")
	}
	if scenario.SeasonalMultiplier(time.January) != 1 {
		t.Error("January is the reference month")
	}
}

func TestEffectForFallbacks(t *testing.T) {
	_, m := genWorld(t, 1, false)
	var xmas scenario.InjectedEffect
	for _, iv := range m.Effects {
		if iv.Name == "Xmas2018" {
			xmas = iv
		}
	}
	// Listed country.
	us := xmas.Country(geo.US)
	if us.Pct != -49 {
		t.Errorf("US effect = %v", us.Pct)
	}
	// Unlisted country falls back to the default.
	au := xmas.Country(geo.AU)
	if au.Pct != -32 {
		t.Errorf("AU fallback effect = %v, want -32", au.Pct)
	}
	// China is never affected.
	cn := xmas.Country(geo.CN)
	if cn.Pct != 0 || cn.Weeks != 0 {
		t.Errorf("CN effect = %+v, want none", cn)
	}
}

func TestUKFreezeShape(t *testing.T) {
	p := genPanel(t, 8, false)
	uk := p.Country(geo.UK)
	us := p.Country(geo.US)
	// Growth ratio during the freeze (Jan 2018 vs Apr 2018, avoiding
	// seasonal contamination by comparing the same weeks of the year for
	// the US).
	ratio := func(s *timeseries.Series, y1, y2 int) float64 {
		a := s.Values[s.Index(timeseries.WeekOf(mkdate(y1, time.February, 5)))]
		b := s.Values[s.Index(timeseries.WeekOf(mkdate(y2, time.February, 5)))]
		return b / a
	}
	ukGrowth := ratio(uk, 2017, 2018) // Feb 2017 -> Feb 2018: mostly pre-freeze
	ukFrozen := ratio(uk, 2018, 2019) // Feb 2018 -> Feb 2019: freeze + resume
	usGrowth := ratio(us, 2018, 2019)
	if ukFrozen >= ukGrowth {
		t.Errorf("UK growth should slow during the freeze: %v -> %v", ukGrowth, ukFrozen)
	}
	_ = usGrowth // US comparison is exercised by the Figure 5 experiment
}

func TestChinaSurgeLocalised(t *testing.T) {
	p := genPanel(t, 9, false)
	cn := p.Country(geo.CN)
	at := func(y int, m time.Month) float64 {
		return cn.Values[cn.Index(timeseries.WeekOf(mkdate(y, m, 15)))]
	}
	peak := at(2017, time.February)
	before := at(2016, time.February)
	after := at(2018, time.February)
	if peak < 1.5*before {
		t.Errorf("CN surge peak %v not well above pre-surge %v", peak, before)
	}
	if after > 1.3*before {
		t.Errorf("CN level after surge %v should return near pre-surge %v", after, before)
	}
}

func TestSelfReportPanelShape(t *testing.T) {
	p := genPanel(t, 10, true)
	sr := p.SelfReport
	if sr.Weeks < 60 || sr.Weeks > 90 {
		t.Errorf("self-report weeks = %d, want ~73 (Nov 2017 - Mar 2019)", sr.Weeks)
	}
	if len(sr.Sites) != len(sr.Market.Providers()) {
		t.Errorf("sites %d != providers %d", len(sr.Sites), len(sr.Market.Providers()))
	}
	for _, h := range sr.Sites {
		if len(h.Obs) != sr.Weeks {
			t.Fatalf("site %s has %d observations, want %d", h.Name, len(h.Obs), sr.Weeks)
		}
	}
	// The rounded-counter booter reports only multiples of 1000.
	foundRounded := false
	for i, prov := range sr.Market.Providers() {
		if prov.Counter.String() == "rounded" {
			foundRounded = true
			for _, o := range sr.Sites[i].Obs {
				if o.Up && int64(o.Total)%1000 != 0 {
					t.Errorf("rounded booter reported %v", o.Total)
					break
				}
			}
		}
	}
	if !foundRounded {
		t.Error("no rounded-counter booter in the market")
	}
}

func TestCountryCorrelationShape(t *testing.T) {
	p := genPanel(t, 11, true)
	from := timeseries.WeekOf(dataset.ModelStart)
	to := timeseries.WeekOf(dataset.SpanEnd)
	slice := func(c string) []float64 { return p.Country(c).Slice(from, to).Values }
	// Western countries correlate strongly; China does not (Figure 4).
	if r := stats.Correlation(slice(geo.US), slice(geo.DE)); r < 0.7 {
		t.Errorf("corr(US, DE) = %.2f, want strong", r)
	}
	if r := stats.Correlation(slice(geo.US), slice(geo.CN)); r > 0.4 {
		t.Errorf("corr(US, CN) = %.2f, want weak", r)
	}
}

func TestProtocolHitShiftsShares(t *testing.T) {
	p := genPanel(t, 12, false)
	// During the Xmas2018 window the LDAP share of global attacks drops
	// relative to the weeks before.
	ldap := p.Protocol(protocols.LDAP)
	idx := ldap.Index(timeseries.WeekOf(mkdate(2018, time.December, 19)))
	share := func(i int) float64 { return ldap.Values[i] / p.Global.Values[i] }
	pre := (share(idx-3) + share(idx-2) + share(idx-1)) / 3
	in := (share(idx+1) + share(idx+2) + share(idx+3)) / 3
	if in >= pre {
		t.Errorf("LDAP share should fall inside the Xmas2018 window: pre %.3f, in %.3f", pre, in)
	}
}

func TestDeterminism(t *testing.T) {
	a := genPanel(t, 99, true)
	b := genPanel(t, 99, true)
	for w := 0; w < a.Weeks; w++ {
		if a.Global.Values[w] != b.Global.Values[w] {
			t.Fatalf("week %d differs between identical seeds", w)
		}
	}
	c := genPanel(t, 100, true)
	same := true
	for w := 0; w < a.Weeks; w++ {
		if a.Global.Values[w] != c.Global.Values[w] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical panels")
	}
}
