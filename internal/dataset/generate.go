package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"booters/internal/geo"
	"booters/internal/market"
	"booters/internal/protocols"
	"booters/internal/scrape"
	"booters/internal/stats"
	"booters/internal/timeseries"
)

// Span is the full measurement window of the paper's UDP dataset.
var (
	// SpanStart is the first week of the five-year panel (July 2014).
	SpanStart = time.Date(2014, time.July, 7, 0, 0, 0, 0, time.UTC)
	// SpanEnd is the last day covered (end of March 2019).
	SpanEnd = time.Date(2019, time.March, 31, 0, 0, 0, 0, time.UTC)
	// ModelStart is where the paper's regression window begins ("June 2016
	// to April 2019 as there is a clear and fairly constant linear trend").
	ModelStart = time.Date(2016, time.June, 6, 0, 0, 0, 0, time.UTC)
	// SelfReportStart is where the booter self-report panel begins
	// (November 2017).
	SelfReportStart = time.Date(2017, time.November, 6, 0, 0, 0, 0, time.UTC)
)

// Config tunes the generator.
type Config struct {
	// Seed drives all randomness deterministically.
	Seed int64
	// GlobalScale is the expected global weekly attack count at the start
	// of the panel (before growth); the paper's series begins around
	// 40-60k reflected attacks per week.
	GlobalScale float64
	// NoiseAlpha is the NB2 dispersion of per-country weekly observation
	// noise (0.006 gives ~8% relative noise on country series and ~4% on
	// the global sum; the paper's weekly counts are noisier still, but
	// higher dispersion makes single-seed validation of per-country
	// contrasts statistically meaningless).
	NoiseAlpha float64
	// DisableNoise turns observation noise off (for deterministic tests).
	DisableNoise bool
}

// DefaultConfig returns the calibrated defaults.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, GlobalScale: 45000, NoiseAlpha: 0.006}
}

// Panel is the generated reproduction dataset: the weekly attack panel
// plus the planted ground truth and the self-report panel.
type Panel struct {
	// Panel is the weekly attack panel: the generator's five-year span,
	// or one week per row of a loaded CSV.
	*timeseries.Panel
	// TrueMu holds the noise-free planted global expectation, for
	// validation.
	TrueMu []float64
	// NoInterventionMu holds the counterfactual global expectation with
	// every intervention effect removed. The ground-truth effect of an
	// intervention over any window is sum(TrueMu)/sum(NoInterventionMu)-1
	// over that window.
	NoInterventionMu []float64

	// SelfReport holds the simulated booter self-report panel.
	SelfReport *SelfReportPanel
}

// SelfReportPanel is the simulated second dataset.
type SelfReportPanel struct {
	// Start is the first collection week.
	Start timeseries.Week
	// Weeks is the number of collection weeks.
	Weeks int
	// Sites holds one collected history per booter.
	Sites []*scrape.SiteHistory
	// Churn is the weekly births/deaths/resurrections series.
	Churn []scrape.Churn
	// Market is the underlying simulation (exposed for structure checks
	// such as the post-Xmas2018 top-provider share).
	Market *market.Simulation
}

// Generate builds the full panel.
func Generate(cfg Config) (*Panel, error) {
	if cfg.GlobalScale <= 0 {
		return nil, fmt.Errorf("dataset: GlobalScale must be positive, got %v", cfg.GlobalScale)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := timeseries.WeekOf(SpanStart)
	end := timeseries.WeekOf(SpanEnd)
	weeks := timeseries.WeeksBetween(start, end) + 1

	p := &Panel{
		Panel:            timeseries.NewPanel(start, weeks),
		TrueMu:           make([]float64, weeks),
		NoInterventionMu: make([]float64, weeks),
	}

	truth := PlantedTruth()
	base := CountryBase()
	var baseTotal float64
	for _, v := range base {
		baseTotal += v
	}

	for w := 0; w < weeks; w++ {
		week := p.Global.Week(w)
		mid := week.Midpoint()
		var globalTrue, globalCF float64
		for _, c := range geo.Countries() {
			muBase := cfg.GlobalScale * base[c] / baseTotal
			muBase *= trendMultiplier(c, mid)
			muBase *= SeasonalMultiplier(week.Month())
			if timeseries.EasterWindow(week) {
				muBase *= 0.985 // the paper's Easter coefficient is ~ -0.016
			}
			if c == geo.CN {
				muBase *= chinaSurge(mid)
			}
			globalCF += muBase
			mu := muBase * interventionMultiplier(truth, c, week)

			// Observation noise: NB2 at the country-week level.
			count := mu
			if !cfg.DisableNoise && mu > 0 {
				nb := stats.NegBinomial{Mu: mu, Alpha: cfg.NoiseAlpha}
				count = float64(nb.Rand(rng))
			}
			globalTrue += mu
			p.ByCountry[c].Values[w] = count
			p.Global.Values[w] += count

			// Protocol split of the country's count.
			shares := protocolShares(c, mid, truth, week)
			for proto, sh := range shares {
				v := count * sh
				p.CountryProtocol[c][proto].Values[w] += v
				p.ByProtocol[proto].Values[w] += v
			}
		}
		p.TrueMu[w] = globalTrue
		p.NoInterventionMu[w] = globalCF
	}

	// Conservative multi-attribution: a slice of US traffic is also
	// attributed to NL and UK, and of DE to FR, pushing Table 3 column
	// sums above 100% without touching the Global series.
	for w := 0; w < weeks; w++ {
		us := p.ByCountry[geo.US].Values[w]
		de := p.ByCountry[geo.DE].Values[w]
		p.ByCountry[geo.NL].Values[w] += 0.04 * us
		p.ByCountry[geo.UK].Values[w] += 0.03 * us
		p.ByCountry[geo.FR].Values[w] += 0.05 * de
	}

	sr, err := generateSelfReport(cfg, p, rng)
	if err != nil {
		return nil, err
	}
	p.SelfReport = sr
	return p, nil
}

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
	drift := 0.0015 * weeksSince(SpanStart, t)
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
	switch {
	case t.Before(freezeStart):
		return math.Exp(drift + rate*weeksSince(growthStart, t))
	case t.Before(freezeEnd):
		frozen := rate * weeksSince(growthStart, freezeStart)
		return math.Exp(drift + frozen)
	default:
		frozen := rate * weeksSince(growthStart, freezeStart)
		resumed := rate * weeksSince(freezeEnd, t)
		spike := 0.06 // the August 2018 step
		return math.Exp(drift + frozen + spike + resumed)
	}
}

// chinaSurge is the 2016-2017 bump in attacks on China visible in Figure 3
// and Table 3 (the paper's attributions put CN top in Feb 2017). The
// reproduction scales the surge down (peak 3.5x over a long, smooth window)
// so that the one-off hump does not swamp the global regression baseline;
// the direction and timing of the anomaly are preserved and the deviation
// is recorded in EXPERIMENTS.md.
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

// interventionMultiplier multiplies the planted effects of every
// intervention active for country c in week w.
func interventionMultiplier(truth []PlantedIntervention, c string, w timeseries.Week) float64 {
	mult := 1.0
	for _, iv := range truth {
		eff := EffectFor(iv, c)
		if eff.Weeks <= 0 || eff.Percent == 0 {
			continue
		}
		startWeek := timeseries.WeekOf(iv.Date)
		lag := iv.LagWeeks
		if eff.Percent > 0 {
			lag = 0 // reprisal spikes begin immediately
		}
		for i := 0; i < lag; i++ {
			startWeek = startWeek.Next()
		}
		d := timeseries.WeeksBetween(startWeek, w)
		if d >= 0 && d < eff.Weeks {
			mult *= 1 + eff.Percent/100
		}
	}
	return mult
}

// protocolShares returns each protocol's share of country c's attacks at
// time t, shifting shares away from protocols hit by an active intervention
// (Figure 6's per-protocol drops).
func protocolShares(c string, t time.Time, truth []PlantedIntervention, w timeseries.Week) map[protocols.Protocol]float64 {
	weights := make(map[protocols.Protocol]float64, protocols.Count())
	var total float64
	for _, proto := range protocols.All() {
		var wt float64
		if c == geo.CN {
			wt = proto.ChinaPopularity(t)
		} else {
			wt = proto.Popularity(t)
		}
		// UK attacks "appear to be almost entirely LDAP since mid-2017".
		if c == geo.UK && t.After(time.Date(2017, time.July, 1, 0, 0, 0, 0, time.UTC)) {
			if proto == protocols.LDAP {
				wt *= 3
			} else {
				wt *= 0.4
			}
		}
		// Active interventions concentrate their drop in particular
		// protocols: suppress the hit protocols' weights during windows.
		for _, iv := range truth {
			if len(iv.ProtocolHit) == 0 {
				continue
			}
			eff := EffectFor(iv, c)
			if eff.Weeks <= 0 || eff.Percent >= 0 {
				continue
			}
			startWeek := timeseries.WeekOf(iv.Date)
			for i := 0; i < iv.LagWeeks; i++ {
				startWeek = startWeek.Next()
			}
			d := timeseries.WeeksBetween(startWeek, w)
			if d < 0 || d >= eff.Weeks {
				continue
			}
			for _, hit := range iv.ProtocolHit {
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

// GroundTruthEffect returns the planted percentage change in global
// expected attacks over the window [start, start+weeks): the exact quantity
// an unbiased global intervention estimate should recover for a dummy
// spanning that window. The second return is false if the window lies
// outside the panel.
func (p *Panel) GroundTruthEffect(start timeseries.Week, weeks int) (float64, bool) {
	i := p.Global.Index(start)
	if i < 0 || weeks <= 0 || i+weeks > p.Weeks {
		return 0, false
	}
	var planted, counterfactual float64
	for w := i; w < i+weeks; w++ {
		planted += p.TrueMu[w]
		counterfactual += p.NoInterventionMu[w]
	}
	if counterfactual == 0 {
		return 0, false
	}
	return 100 * (planted/counterfactual - 1), true
}
