package scenario

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"booters/internal/dataset"
	"booters/internal/geo"
	"booters/internal/interventions"
	"booters/internal/market"
	"booters/internal/protocols"
	"booters/internal/stats"
	"booters/internal/timeseries"
)

// PaperName names the paper's world in its manifest.
const PaperName = "paper"

// PaperGlobalScale is the paper world's expected global weekly attack
// count at the start of the panel (before growth); the paper's series
// begins around 40-60k reflected attacks per week.
const PaperGlobalScale = 45000

// paperNoiseAlpha is the NB2 dispersion of per-country weekly observation
// noise: ~8% relative noise on country series and ~4% on the global sum.
// The paper's weekly counts are noisier still, but higher dispersion makes
// single-seed validation of per-country contrasts statistically
// meaningless.
const paperNoiseAlpha = 0.006

// booterShareOfDemand is the fraction of observed attack volume attributed
// to the self-reporting booter population (the paper's panel covers "75%
// or more of active booters").
const booterShareOfDemand = 0.8

// GeneratePaper builds the paper's world from seed: the five-year weekly
// panel of reflected-UDP attack counts (global, per victim country, per
// protocol) with the 18-month booter self-report panel, and the Manifest
// recording its planted truth. The paper's measured intervention effects
// (Tables 1 and 2) are planted per country in a demand model, the market
// simulator supplies the self-report side, and NB2 observation noise is
// drawn per country-week unless noiseFree is set, in which case the global
// series equals the manifest's PlantedMu. Deterministic for a given seed.
func GeneratePaper(seed int64, noiseFree bool) (*dataset.Panel, *Manifest, error) {
	rng := rand.New(rand.NewSource(seed))
	start := timeseries.WeekOf(dataset.SpanStart)
	weeks := timeseries.WeeksBetween(start, timeseries.WeekOf(dataset.SpanEnd)) + 1

	p := &dataset.Panel{Panel: timeseries.NewPanel(start, weeks)}
	m := &Manifest{
		Name:             PaperName,
		Seed:             seed,
		Start:            start.Start,
		Weeks:            weeks,
		Effects:          plantedEffects(start),
		PlantedMu:        make([]float64, weeks),
		CounterfactualMu: make([]float64, weeks),
	}

	base := paperCountryBase()
	var baseTotal float64
	for _, v := range base {
		baseTotal += v
	}

	for w := 0; w < weeks; w++ {
		week := p.Global.Week(w)
		mid := week.Midpoint()
		var globalTrue, globalCF float64
		for _, c := range geo.Countries() {
			muBase := PaperGlobalScale * base[c] / baseTotal
			muBase *= trendMultiplier(c, mid)
			muBase *= SeasonalMultiplier(week.Month())
			if timeseries.EasterWindow(week) {
				muBase *= 0.985 // the paper's Easter coefficient is ~ -0.016
			}
			if c == geo.CN {
				muBase *= chinaSurge(mid)
			}
			globalCF += muBase
			mu := muBase * plantedMultiplier(m.Effects, c, w)

			// Observation noise: NB2 at the country-week level.
			count := mu
			if !noiseFree && mu > 0 {
				nb := stats.NegBinomial{Mu: mu, Alpha: paperNoiseAlpha}
				count = float64(nb.Rand(rng))
			}
			globalTrue += mu
			p.Country(c).Values[w] = count
			p.Global.Values[w] += count

			// Protocol split of the country's count.
			for proto, sh := range protocolShares(c, mid, m.Effects, w) {
				v := count * sh
				p.CountryProtocol(c, proto).Values[w] += v
				p.Protocol(proto).Values[w] += v
			}
		}
		m.PlantedMu[w] = globalTrue
		m.CounterfactualMu[w] = globalCF

		// Conservative multi-attribution: a slice of US traffic is also
		// attributed to NL and UK, and of DE to FR, pushing Table 3
		// column sums above 100% without touching the Global series.
		us, de := p.Country(geo.US).Values[w], p.Country(geo.DE).Values[w]
		p.Country(geo.NL).Values[w] += 0.04 * us
		p.Country(geo.UK).Values[w] += 0.03 * us
		p.Country(geo.FR).Values[w] += 0.05 * de
	}

	m.PlannedWeekly = slices.Clone(p.Global.Values)
	for i, e := range m.Effects {
		pct, _ := m.GroundTruthEffect(p.Global.Week(e.Week), e.Weeks)
		m.Effects[i].ExpectedMeanPct = pct
		m.Effects[i].ExpectedCoef = math.Log(1 + pct/100)
	}

	sr, err := paperSelfReport(seed, p.Global)
	if err != nil {
		return nil, nil, err
	}
	p.SelfReport = sr
	return p, m, nil
}

// paperSelfReport runs the booter market over the self-report window
// (Nov 2017 - Mar 2019) on the booters' share of the panel's global
// demand, with the supply-side shocks of the two structural
// interventions.
func paperSelfReport(seed int64, global *timeseries.Series) (*dataset.SelfReportPanel, error) {
	start := timeseries.WeekOf(dataset.SelfReportStart)
	offset := global.Index(start)
	demand := make([]float64, global.Len()-offset)
	l7Shift := time.Date(2019, time.February, 28, 0, 0, 0, 0, time.UTC)
	for w := range demand {
		demand[w] = global.Values[offset+w] * booterShareOfDemand
		// From March 2019 the self-reported totals keep growing even as
		// UDP-reflection counts flatten: the move toward direct/L7
		// attacks invisible to the honeypots.
		if global.Week(offset + w).Start.After(l7Shift) {
			demand[w] *= 1.15
		}
	}
	shocks := []market.Shock{
		{
			// Webstresser: the biggest booter seized; resellers that
			// subcontracted to it die in a spike; new booters appear after
			// a couple of weeks (entry is untouched).
			Week:                 timeseries.WeeksBetween(start, timeseries.WeekOf(interventions.Date("Webstresser"))),
			KillLargest:          1,
			KillSubcontractorsOf: true,
			Permanent:            true,
		},
		{
			// Xmas2018: two of the three majors closed permanently plus a
			// sweep of smaller services; shop-front discovery suppressed;
			// one of the closed booters returns under a similar name in
			// March (11 weeks later).
			Week:             timeseries.WeeksBetween(start, timeseries.WeekOf(interventions.Date("Xmas2018"))),
			KillLargest:      2,
			KillFraction:     0.2,
			Permanent:        true,
			EntrySuppression: 0.3,
			EntryWeeks:       6,
			ResurrectAfter:   11,
		},
	}
	return selfReportPanel(start, seed, shocks, demand)
}

// plantedIntervention is the planted truth for one Table 1 intervention:
// per-country effects (the first row, Country "", is the default for
// unlisted countries), the onset lag of its drops, and the protocols
// whose share it suppresses.
type plantedIntervention struct {
	name         string
	lagWeeks     int
	effects      []CountryEffect
	protocolsHit []string
}

// paperTruth is the calibration table distilled from the paper's Tables 1
// and 2: the per-country mean effects of the five globally significant
// interventions. Effect sizes are taken from Table 2 (with "n.s." rows
// planted as no effect); durations are uniform per intervention at Table
// 2's "Overall" value, so each planted window has a clean edge. Table 2's
// per-country duration variation was itself an estimate, and planting it
// directly would leave depressed weeks that no single global window can
// cover. These are the values the reproduction is validated against.
var paperTruth = []plantedIntervention{
	{
		name: "HackForums",
		effects: []CountryEffect{
			{Country: "", Pct: -30, Weeks: 13},
			{Country: geo.UK, Pct: -48, Weeks: 13},
			{Country: geo.US, Pct: -30, Weeks: 13},
			{Country: geo.RU, Pct: -13, Weeks: 13},
			{Country: geo.FR, Pct: -52, Weeks: 13},
			{Country: geo.DE, Pct: -32, Weeks: 13},
			{Country: geo.PL, Pct: 0, Weeks: 0}, // n.s. (+2%)
			{Country: geo.NL, Pct: -35, Weeks: 13},
		},
		protocolsHit: []string{"CHARGEN", "NTP"},
	},
	{
		name: "vDOS",
		effects: []CountryEffect{
			{Country: "", Pct: -24, Weeks: 3},
			{Country: geo.UK, Pct: -20, Weeks: 3},
			// Table 2 reports US -4% (n.s.); planting a literal zero
			// for 45% of global traffic would make the global vDOS
			// effect undetectable, so a modest drop is planted while
			// keeping the US the weakest vDOS row.
			{Country: geo.US, Pct: -12, Weeks: 3},
			{Country: geo.RU, Pct: -37, Weeks: 3},
			{Country: geo.FR, Pct: -30, Weeks: 3},
			{Country: geo.DE, Pct: -4, Weeks: 0}, // n.s.
			{Country: geo.PL, Pct: 0, Weeks: 0},  // n.s. (+16%)
			{Country: geo.NL, Pct: -24, Weeks: 3},
		},
	},
	{
		// Webstresser took effect "after a fortnight".
		name: "Webstresser", lagWeeks: 2,
		effects: []CountryEffect{
			{Country: "", Pct: -21, Weeks: 3},
			{Country: geo.UK, Pct: -10, Weeks: 0}, // n.s.
			{Country: geo.US, Pct: -24, Weeks: 3},
			{Country: geo.RU, Pct: -16, Weeks: 0}, // n.s.
			{Country: geo.FR, Pct: -22, Weeks: 3},
			{Country: geo.DE, Pct: -29, Weeks: 3},
			{Country: geo.PL, Pct: -29, Weeks: 3},
			// Reprisal attacks against the Dutch police: a large
			// increase, starting immediately (no lag).
			{Country: geo.NL, Pct: 146, Weeks: 4},
		},
		protocolsHit: []string{"DNS", "LDAP"},
	},
	{
		name: "Mirai",
		effects: []CountryEffect{
			{Country: "", Pct: -40, Weeks: 8},
			{Country: geo.UK, Pct: -27, Weeks: 8},
			{Country: geo.US, Pct: -31, Weeks: 8},
			{Country: geo.RU, Pct: -5, Weeks: 0}, // n.s.
			{Country: geo.FR, Pct: -9, Weeks: 0}, // n.s.
			{Country: geo.DE, Pct: -32, Weeks: 8},
			{Country: geo.PL, Pct: -47, Weeks: 8},
			{Country: geo.NL, Pct: -19, Weeks: 8},
		},
	},
	{
		name: "Xmas2018",
		effects: []CountryEffect{
			{Country: "", Pct: -32, Weeks: 10},
			{Country: geo.UK, Pct: -27, Weeks: 10},
			{Country: geo.US, Pct: -49, Weeks: 10},
			{Country: geo.RU, Pct: -33, Weeks: 10},
			{Country: geo.FR, Pct: -1, Weeks: 0}, // n.s.
			{Country: geo.DE, Pct: -28, Weeks: 10},
			{Country: geo.PL, Pct: -23, Weeks: 10},
			{Country: geo.NL, Pct: -16, Weeks: 10},
		},
		protocolsHit: []string{"LDAP", "DNS"},
	},
}

// plantedEffects resolves paperTruth into manifest effects on the span
// starting at start: one row per victim country (unlisted countries take
// the default row, China is never affected, as the paper finds), onsets in
// span weeks with the lag applied to drops only, since reprisal spikes
// begin immediately. The effect's own window is the default row's.
func plantedEffects(start timeseries.Week) []InjectedEffect {
	var out []InjectedEffect
	for _, iv := range paperTruth {
		onset := timeseries.WeeksBetween(start, timeseries.WeekOf(interventions.Date(iv.name)))
		def := iv.effects[0]
		eff := InjectedEffect{Name: iv.name, Week: onset + iv.lagWeeks, Weeks: def.Weeks, ProtocolsHit: iv.protocolsHit}
		for _, c := range geo.Countries() {
			ce := def
			for _, e := range iv.effects[1:] {
				if e.Country == c {
					ce = e
				}
			}
			if c == geo.CN {
				ce = CountryEffect{}
			}
			ce.Country, ce.Week = c, onset
			if ce.Pct <= 0 {
				ce.Week += iv.lagWeeks
			}
			eff.Countries = append(eff.Countries, ce)
		}
		out = append(out, eff)
	}
	return out
}

// plantedMultiplier multiplies the planted effects of every intervention
// active for country c in span week w.
func plantedMultiplier(effects []InjectedEffect, c string, w int) float64 {
	mult := 1.0
	for _, e := range effects {
		if ce := e.Country(c); ce.Active(w) {
			mult *= 1 + ce.Pct/100
		}
	}
	return mult
}

// paperCountryBase returns each country's baseline share weight of global
// demand, calibrated to Table 3's long-run shares (US largest, then FR, CN,
// UK, DE, PL, RU, NL, plus the smaller AU/CA/SA tail shown in Figure 3).
func paperCountryBase() map[string]float64 {
	return map[string]float64{
		geo.US: 45,
		geo.FR: 10,
		geo.CN: 8,
		geo.UK: 7,
		geo.DE: 6,
		geo.PL: 3.5,
		geo.RU: 2.5,
		geo.NL: 2.5,
		geo.AU: 2,
		geo.CA: 2,
		geo.SA: 1.5,
	}
}

// seasonalCoef holds the paper's Table 1 month-of-year coefficients,
// January (the reference month) to December.
var seasonalCoef = [12]float64{0, 0.076, -0.051, -0.025, -0.098, -0.134, -0.125, -0.078, 0.069, -0.086, -0.111, 0.091}

// SeasonalMultiplier returns the paper world's planted month-of-year
// demand multiplier, exp of the Table 1 seasonal coefficient. December
// and January are high season; early summer is low.
func SeasonalMultiplier(m time.Month) float64 { return math.Exp(seasonalCoef[m-1]) }

// growthStart is where the sustained exponential growth phase begins. The
// paper restricts its model to June 2016 - April 2019 precisely because
// "there is a clear and fairly constant linear trend over this period", so
// the generator's log-linear growth starts at the model window (earlier
// years carry only a slow drift).
var growthStart = time.Date(2016, time.June, 6, 0, 0, 0, 0, time.UTC)

// trendMultiplier returns the country's long-run growth factor at time t:
// slow drift through 2014-2016, then exponential growth over the model
// window, with Russia growing less, China flat, and the UK frozen during
// (and for two months after) the NCA advertising campaign.
func trendMultiplier(c string, t time.Time) float64 {
	// Slow background drift across the early years so 2014-2016 is not
	// perfectly flat (Figure 1 shows mild growth).
	drift := 0.0015 * weeksSince(dataset.SpanStart, t)
	if t.Before(growthStart) {
		return math.Exp(drift)
	}
	rate := 0.0095 // per week; the Table 1 trend coefficient is 0.010
	switch c {
	case geo.CN:
		return math.Exp(drift) // no growth trend
	case geo.RU:
		rate = 0.004 // "less growth over time"
	case geo.UK:
		return ukTrend(t, drift, rate)
	}
	return math.Exp(drift + rate*weeksSince(growthStart, t))
}

// ukTrend freezes UK growth during the NCA campaign window (late Dec 2017
// to June 2018) and keeps it flat until August 2018, after which growth
// resumes with a small step ("a large spike in attacks and the series
// begins to grow again").
func ukTrend(t time.Time, drift, rate float64) float64 {
	freezeStart := time.Date(2017, time.December, 18, 0, 0, 0, 0, time.UTC)
	freezeEnd := time.Date(2018, time.August, 6, 0, 0, 0, 0, time.UTC)
	if t.Before(freezeStart) {
		return math.Exp(drift + rate*weeksSince(growthStart, t))
	}
	frozen := rate * weeksSince(growthStart, freezeStart)
	if t.Before(freezeEnd) {
		return math.Exp(drift + frozen)
	}
	const spike = 0.06 // the August 2018 step
	return math.Exp(drift + frozen + spike + rate*weeksSince(freezeEnd, t))
}

// chinaSurge is the 2016-2017 bump in attacks on China visible in Figure 3
// and Table 3 (the paper's attributions put CN top in Feb 2017). The
// reproduction scales the surge down (peak 2.6x over a long, smooth
// window) because a one-off hump at the paper's 55% share would swamp the
// global regression baseline the Table 1 fit needs; the direction and
// timing of the anomaly are preserved, and Table 3's check reads the
// spike-and-fall shape rather than the paper's level.
func chinaSurge(t time.Time) float64 {
	startRise := time.Date(2016, time.September, 1, 0, 0, 0, 0, time.UTC)
	peakFrom := time.Date(2016, time.December, 1, 0, 0, 0, 0, time.UTC)
	peakTo := time.Date(2017, time.April, 1, 0, 0, 0, 0, time.UTC)
	fallEnd := time.Date(2017, time.September, 1, 0, 0, 0, 0, time.UTC)
	const peak = 2.6 // multiplier at the top of the surge
	switch {
	case t.Before(startRise) || t.After(fallEnd):
		return 1
	case t.Before(peakFrom):
		f := t.Sub(startRise).Seconds() / peakFrom.Sub(startRise).Seconds()
		return 1 + (peak-1)*f
	case t.Before(peakTo):
		return peak
	default:
		f := t.Sub(peakTo).Seconds() / fallEnd.Sub(peakTo).Seconds()
		return peak - (peak-1)*f
	}
}

// protocolShares returns each protocol's share of country c's attacks at
// time t in span week w, shifting shares away from the protocols an active
// drop hits (Figure 6's per-protocol drops).
func protocolShares(c string, t time.Time, effects []InjectedEffect, w int) map[protocols.Protocol]float64 {
	weights := make(map[protocols.Protocol]float64, protocols.Count())
	var total float64
	for _, proto := range protocols.All() {
		wt := popularity(proto, c, t)
		// UK attacks "appear to be almost entirely LDAP since mid-2017".
		if c == geo.UK && t.After(time.Date(2017, time.July, 1, 0, 0, 0, 0, time.UTC)) {
			if proto == protocols.LDAP {
				wt *= 3
			} else {
				wt *= 0.4
			}
		}
		// Active drops concentrate in particular protocols: suppress the
		// hit protocols' weights during the window.
		for _, e := range effects {
			if ce := e.Country(c); ce.Pct >= 0 || !ce.Active(w) {
				continue
			}
			for _, hit := range e.ProtocolsHit {
				if proto.String() == hit {
					wt *= 0.55
				}
			}
		}
		// Honeypot coverage scales what we observe per protocol: scarce
		// real reflectors mean near-complete honeypot visibility.
		wt *= 0.5 + 0.5*proto.RealReflectorScarcity()
		weights[proto] = wt
		total += wt
	}
	for proto := range weights {
		weights[proto] /= total
	}
	return weights
}

// weeksSince returns fractional weeks from a to b (0 if b precedes a).
func weeksSince(a, b time.Time) float64 {
	if b.Before(a) {
		return 0
	}
	return b.Sub(a).Hours() / (24 * 7)
}
