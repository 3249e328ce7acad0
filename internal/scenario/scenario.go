// Package scenario is the pipeline's workload library: a config-driven,
// seeded, composable generator of honeypot packet streams (and booter
// self-report scrape events) whose ground truth is known by construction.
//
// A Config lays scenario primitives on a weekly timeline — coordinated
// takedown waves with a configurable effect size and attacker migration
// back to surviving services (Kopp et al.), booter market dynamics:
// churn, capacity caps and flash sales (Karami et al., via
// internal/market), a per-victim mitigation cap on what traffic gets
// through (MiddlePolice-style what-if, answered by ingest.MitigationSink),
// and hostile inputs: duplicate and reordered floods, cross-sensor clock
// skew, adversarial spool-segment corruption. Generate turns the config
// into a Run: a time-sorted packet stream, an optional
// hostile-transformed twin, an optional scrape-event stream, and a
// Manifest recording the injected ground truth (planned weekly panel,
// expected NB2 coefficients with tolerances, mitigation and self-report
// truths).
//
// The streams are built so the pipeline's weekly attack panel equals the
// planned counts exactly: every planned attack becomes exactly one
// classified attack flow (unique or gap-spaced victims, margins that keep
// flows inside their week under bounded clock skew), which is what lets
// the same scenarios serve as intervention-fit regression fixtures, as
// hostile-input property tests, and as bench load profiles.
//
// It is the repo's only packet-stream generator: the commands'
// -seed/-weeks/-attacks stream is a Config with Market set, and the
// tests and benches build their streams the same way, so every
// generated stream carries a Manifest to verify against. The paper's own
// world (GeneratePaper) lives here too: a weekly panel drawn directly
// from a calibrated demand model, with no packets, whose Manifest
// records the planted per-country effects and the planted and
// counterfactual weekly expectations. See docs/SCENARIOS.md for the
// config format and manifest schema.
package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"booters/internal/market"
	"booters/internal/timeseries"
)

// Noise kinds for Config.Noise.
const (
	// NoiseNone plans each week's attack count as round(mu): the exact
	// recovery mode regression fixtures use.
	NoiseNone = ""
	// NoisePoisson draws each week's count from Poisson(mu) with the
	// scenario seed, for fixtures that must hold under count noise.
	NoisePoisson = "poisson"
)

// Takedown is a coordinated police-intervention primitive: attack volume
// drops by DropPct for Weeks weeks starting at scenario week Week, with an
// optional migration ramp — attackers drifting back to surviving services
// — recovering MigrationPct of the suppressed volume by the window's end
// (linear, Kopp et al.'s takedown-wave observation).
type Takedown struct {
	// Name labels the intervention in the manifest and the model fit.
	Name string `json:"name"`
	// Week is the 0-based scenario week the takedown takes effect.
	Week int `json:"week"`
	// Weeks is the effect-window length.
	Weeks int `json:"weeks"`
	// DropPct is the injected volume drop, percent (0..100).
	DropPct float64 `json:"drop_pct"`
	// MigrationPct is the share of the suppressed volume recovered by the
	// last window week (0..100); 0 holds the full drop for the window.
	MigrationPct float64 `json:"migration_pct,omitempty"`
	// CoefTolerance overrides the recovery assertion tolerance on the
	// NB2 coefficient; <= 0 picks a default from the scenario's noise
	// and migration settings.
	CoefTolerance float64 `json:"coef_tolerance,omitempty"`
}

// multiplier returns the takedown's volume multiplier at scenario week w.
func (td Takedown) multiplier(w int) float64 {
	j := w - td.Week
	if j < 0 || j >= td.Weeks {
		return 1
	}
	drop := td.DropPct / 100
	ramp := 0.0
	if td.Weeks > 1 {
		ramp = float64(j) / float64(td.Weeks-1)
	}
	return 1 - drop + drop*(td.MigrationPct/100)*ramp
}

// FlashSale is a market-dynamics primitive (Karami et al.): a short
// promotional burst boosting attack volume by BoostPct for Weeks weeks.
type FlashSale struct {
	// Name labels the burst in the manifest and the model fit.
	Name string `json:"name"`
	// Week is the 0-based scenario week the sale starts.
	Week int `json:"week"`
	// Weeks is the burst length.
	Weeks int `json:"weeks"`
	// BoostPct is the injected volume boost, percent.
	BoostPct float64 `json:"boost_pct"`
	// CoefTolerance overrides the recovery tolerance; <= 0 uses the
	// scenario default.
	CoefTolerance float64 `json:"coef_tolerance,omitempty"`
}

// multiplier returns the sale's volume multiplier at scenario week w.
func (fs FlashSale) multiplier(w int) float64 {
	if w < fs.Week || w >= fs.Week+fs.Weeks {
		return 1
	}
	return 1 + fs.BoostPct/100
}

// MarketDynamics switches weekly volume shape from the analytic plan to
// the agent-based market simulator (internal/market): subscriber churn,
// per-provider capacity caps, entries and deaths shape the week-to-week
// counts, and takedowns act through supply shocks (killing the largest
// provider plus a fraction of the rest) instead of clean multipliers.
// Because the shape is emergent, manifests for market scenarios record
// the realized weekly plan but assert no analytic coefficients.
type MarketDynamics struct {
	// Offered is the offered demand fed to the simulator each week;
	// <= 0 means 300000 (near the default market's total capacity, so
	// supply shocks are visible in served volume).
	Offered float64 `json:"offered,omitempty"`
	// GrowthPerWeek grows the offered demand (default 0.003).
	GrowthPerWeek float64 `json:"growth_per_week,omitempty"`
}

// MitigationSpec configures the per-victim mitigation what-if: the
// scenario draws victims from a fixed pool (so per-victim weekly attack
// counts exceed one) and the manifest records how many attack flows an
// ingest.MitigationSink with this cap would admit and mitigate.
type MitigationSpec struct {
	// PerVictimWeekly is the cap on admitted attack flows per victim per
	// week; must be positive.
	PerVictimWeekly int `json:"per_victim_weekly"`
}

// HostileSpec configures the hostile-input transforms applied to the
// clean stream to build Run.Hostile: duplicated packets, bounded
// reordering, and per-sensor clock skew. The transforms are bounded so
// the weekly panel of the hostile stream is byte-identical to the clean
// run's (see docs/SCENARIOS.md for the invariants).
type HostileSpec struct {
	// DuplicatePct is the share of packets emitted twice (0..100).
	// Duplicates are capped below the attack threshold's headroom, so
	// they can never promote a scan to an attack.
	DuplicatePct float64 `json:"duplicate_pct,omitempty"`
	// ReorderSeconds shuffles delivery order within time buckets of this
	// many seconds; the stream then requires an order-tolerant pipeline
	// fed with a watermark lagged by at least this bound (0..300).
	ReorderSeconds float64 `json:"reorder_seconds,omitempty"`
	// SkewSeconds offsets each sensor's clock by a seeded draw in
	// [-SkewSeconds, +SkewSeconds] (0..120; the generator's week margins
	// absorb it, so flows never change weeks).
	SkewSeconds float64 `json:"skew_seconds,omitempty"`
}

// SelfReportSpec turns on the scenario's booter self-report side: a
// market simulation (seeded from the scenario) serves a share of the
// planned demand, takedowns map to supply shocks, and every provider's
// weekly counter observation is emitted as a ScrapeEvent — the streaming
// scrape source that populates the panel's self-report side.
type SelfReportSpec struct {
	// Share is the fraction of planned attack volume attributed to the
	// self-reporting booter population; <= 0 means 0.8 (the paper's
	// "75% or more" coverage).
	Share float64 `json:"share,omitempty"`
}

// Config describes one scenario: a seeded timeline of primitives over a
// weekly span. The zero value is invalid; see the field docs and
// docs/SCENARIOS.md for defaults. Named catalog scenarios (Names, Load)
// are prebuilt Configs.
type Config struct {
	// Name labels the scenario in manifests and CLIs.
	Name string `json:"name"`
	// Seed drives all randomness deterministically.
	Seed int64 `json:"seed"`
	// Start is the first scenario instant; it is normalised to the
	// Monday of its week so scenario weeks align with panel weeks.
	Start time.Time `json:"start"`
	// Weeks is the scenario length. Recovery fixtures need at least
	// MinFitWeeks so the seasonal NB2 design stays full-rank.
	Weeks int `json:"weeks"`
	// Sensors is the honeypot fleet size; <= 0 means 8.
	Sensors int `json:"sensors,omitempty"`
	// BaselineAttacks is the mean attack-flow count in week 0 before
	// multipliers; <= 0 means 150.
	BaselineAttacks float64 `json:"baseline_attacks,omitempty"`
	// TrendPerWeek is the log-linear weekly growth rate of the baseline.
	TrendPerWeek float64 `json:"trend_per_week,omitempty"`
	// ScansPerWeek is the number of single-packet scanner flows per
	// week; < 0 means none, 0 means BaselineAttacks/4.
	ScansPerWeek int `json:"scans_per_week,omitempty"`
	// Noise selects the weekly count draw: NoiseNone or NoisePoisson.
	Noise string `json:"noise,omitempty"`
	// VictimPool draws victims from a fixed pool of this size instead of
	// a fresh victim per attack; needed by mitigation scenarios where
	// per-victim weekly counts must exceed the cap. Same-victim attacks
	// are stride-scheduled farther apart than the flow gap, so each
	// attack still closes as its own flow.
	VictimPool int `json:"victim_pool,omitempty"`
	// Takedowns are the takedown-wave primitives on the timeline.
	Takedowns []Takedown `json:"takedowns,omitempty"`
	// FlashSales are the promotional-burst primitives on the timeline.
	FlashSales []FlashSale `json:"flash_sales,omitempty"`
	// Market, when set, derives weekly volume shape from the market
	// simulator instead of the analytic plan.
	Market *MarketDynamics `json:"market,omitempty"`
	// Mitigation, when set, records per-victim mitigation ground truth
	// in the manifest (use with VictimPool).
	Mitigation *MitigationSpec `json:"mitigation,omitempty"`
	// Hostile, when set, builds the hostile-transformed twin stream.
	Hostile *HostileSpec `json:"hostile,omitempty"`
	// SelfReport, when set, generates the scrape-event stream and the
	// self-report panel.
	SelfReport *SelfReportSpec `json:"self_report,omitempty"`
}

// MinFitWeeks is the minimum scenario length for NB2 recovery fixtures:
// beyond its.Fit's own 20-week floor, the span must cover every calendar
// month (and an Easter) or the seasonal design matrix goes rank-deficient.
const MinFitWeeks = 56

// weekMargin keeps every flow clear of its week's boundaries: attacks
// start at least this far after the week begins and finish at least this
// far before it ends, so bounded sensor clock skew (HostileSpec.SkewSeconds
// <= maxSkewSeconds) can never move a flow's first packet across a week
// boundary.
const weekMargin = 10 * time.Minute

// maxSkewSeconds bounds HostileSpec.SkewSeconds (absorbed by weekMargin).
const maxSkewSeconds = 120

// maxReorderSeconds bounds HostileSpec.ReorderSeconds.
const maxReorderSeconds = 300

// withDefaults validates cfg and fills zero fields.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Weeks <= 0 {
		return cfg, fmt.Errorf("scenario: Weeks must be positive, got %d", cfg.Weeks)
	}
	if cfg.Start.IsZero() {
		return cfg, fmt.Errorf("scenario: Start is required")
	}
	cfg.Start = timeseries.WeekOf(cfg.Start).Start
	if cfg.Sensors <= 0 {
		cfg.Sensors = 8
	}
	if cfg.BaselineAttacks <= 0 {
		cfg.BaselineAttacks = 150
	}
	if cfg.ScansPerWeek == 0 {
		cfg.ScansPerWeek = int(cfg.BaselineAttacks / 4)
	}
	if cfg.ScansPerWeek < 0 {
		cfg.ScansPerWeek = 0
	}
	switch cfg.Noise {
	case NoiseNone, NoisePoisson:
	default:
		return cfg, fmt.Errorf("scenario: unknown noise kind %q (want %q or %q)", cfg.Noise, NoiseNone, NoisePoisson)
	}
	if cfg.VictimPool < 0 {
		return cfg, fmt.Errorf("scenario: VictimPool must be >= 0, got %d", cfg.VictimPool)
	}
	for i, td := range cfg.Takedowns {
		if td.Name == "" {
			return cfg, fmt.Errorf("scenario: takedown %d needs a name", i)
		}
		if td.Week < 0 || td.Weeks <= 0 || td.Week+td.Weeks > cfg.Weeks {
			return cfg, fmt.Errorf("scenario: takedown %q window [%d, %d) outside the %d-week span",
				td.Name, td.Week, td.Week+td.Weeks, cfg.Weeks)
		}
		if td.DropPct <= 0 || td.DropPct >= 100 {
			return cfg, fmt.Errorf("scenario: takedown %q DropPct %v outside (0, 100)", td.Name, td.DropPct)
		}
		if td.MigrationPct < 0 || td.MigrationPct > 100 {
			return cfg, fmt.Errorf("scenario: takedown %q MigrationPct %v outside [0, 100]", td.Name, td.MigrationPct)
		}
	}
	for i, fs := range cfg.FlashSales {
		if fs.Name == "" {
			return cfg, fmt.Errorf("scenario: flash sale %d needs a name", i)
		}
		if fs.Week < 0 || fs.Weeks <= 0 || fs.Week+fs.Weeks > cfg.Weeks {
			return cfg, fmt.Errorf("scenario: flash sale %q window [%d, %d) outside the %d-week span",
				fs.Name, fs.Week, fs.Week+fs.Weeks, cfg.Weeks)
		}
		if fs.BoostPct <= 0 {
			return cfg, fmt.Errorf("scenario: flash sale %q BoostPct %v must be positive", fs.Name, fs.BoostPct)
		}
	}
	if cfg.Mitigation != nil {
		if cfg.Mitigation.PerVictimWeekly <= 0 {
			return cfg, fmt.Errorf("scenario: Mitigation.PerVictimWeekly must be positive")
		}
		if cfg.VictimPool <= 0 {
			return cfg, fmt.Errorf("scenario: Mitigation requires VictimPool (unique victims never hit a per-victim cap)")
		}
	}
	if h := cfg.Hostile; h != nil {
		if h.DuplicatePct < 0 || h.DuplicatePct > 100 {
			return cfg, fmt.Errorf("scenario: Hostile.DuplicatePct %v outside [0, 100]", h.DuplicatePct)
		}
		if h.ReorderSeconds < 0 || h.ReorderSeconds > maxReorderSeconds {
			return cfg, fmt.Errorf("scenario: Hostile.ReorderSeconds %v outside [0, %d]", h.ReorderSeconds, maxReorderSeconds)
		}
		if h.SkewSeconds < 0 || h.SkewSeconds > maxSkewSeconds {
			return cfg, fmt.Errorf("scenario: Hostile.SkewSeconds %v outside [0, %d] (the generator's week margin absorbs at most that)", h.SkewSeconds, maxSkewSeconds)
		}
	}
	if sr := cfg.SelfReport; sr != nil {
		if sr.Share <= 0 {
			sr2 := *sr
			sr2.Share = booterShareOfDemand
			cfg.SelfReport = &sr2
		} else if sr.Share > 1 {
			return cfg, fmt.Errorf("scenario: SelfReport.Share %v outside (0, 1]", sr.Share)
		}
	}
	return cfg, nil
}

// End returns the last scenario day (inclusive), the value pipeline
// configs take as Config.End.
func (cfg Config) End() time.Time {
	return timeseries.WeekOf(cfg.Start).Start.AddDate(0, 0, 7*cfg.Weeks-1)
}

// plan computes the planned weekly attack-flow counts: the analytic
// baseline-times-multipliers path, or the market-simulated shape when
// cfg.Market is set. Counts are integers stored as float64 — exactly the
// values the pipeline's weekly panel must reproduce.
func (cfg Config) plan() ([]float64, error) {
	planned := make([]float64, cfg.Weeks)
	shape := make([]float64, cfg.Weeks)
	if cfg.Market != nil {
		served, err := cfg.marketShape()
		if err != nil {
			return nil, err
		}
		copy(shape, served)
	} else {
		for w := 0; w < cfg.Weeks; w++ {
			shape[w] = cfg.BaselineAttacks * math.Exp(cfg.TrendPerWeek*float64(w))
			for _, td := range cfg.Takedowns {
				shape[w] *= td.multiplier(w)
			}
		}
	}
	// Flash sales apply in both modes (the market has no sale concept).
	for w := 0; w < cfg.Weeks; w++ {
		for _, fs := range cfg.FlashSales {
			shape[w] *= fs.multiplier(w)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x706c616e)) // "plan"
	for w := 0; w < cfg.Weeks; w++ {
		mu := shape[w]
		switch cfg.Noise {
		case NoisePoisson:
			planned[w] = float64(poisson(rng, mu))
		default:
			planned[w] = math.Round(mu)
		}
	}
	return planned, nil
}

// marketShape runs the market simulator with takedowns mapped to supply
// shocks and returns weekly served demand normalised so its mean is the
// configured baseline.
func (cfg Config) marketShape() ([]float64, error) {
	mcfg := market.DefaultConfig(cfg.Weeks, cfg.Seed)
	for _, td := range cfg.Takedowns {
		mcfg.Shocks = append(mcfg.Shocks, market.Shock{
			Week:             td.Week,
			KillLargest:      1,
			KillFraction:     0.5 * td.DropPct / 100,
			Permanent:        td.MigrationPct == 0,
			EntrySuppression: 0.3,
			EntryWeeks:       4,
		})
	}
	sim, err := market.New(mcfg)
	if err != nil {
		return nil, err
	}
	offered := 300_000.0
	growth := 0.003
	if cfg.Market.Offered > 0 {
		offered = cfg.Market.Offered
	}
	if cfg.Market.GrowthPerWeek != 0 {
		growth = cfg.Market.GrowthPerWeek
	}
	served := make([]float64, cfg.Weeks)
	var total float64
	for w := 0; w < cfg.Weeks; w++ {
		rec, err := sim.Step(offered * (1 + growth*float64(w)))
		if err != nil {
			return nil, err
		}
		served[w] = rec.Served
		total += rec.Served
	}
	if total == 0 {
		return nil, fmt.Errorf("scenario: market served no demand over %d weeks", cfg.Weeks)
	}
	scale := cfg.BaselineAttacks * float64(cfg.Weeks) / total
	for w := range served {
		served[w] *= scale
	}
	return served, nil
}

// poisson draws from Poisson(mu): Knuth's product method for small mu, a
// clamped normal approximation above it (synthetic count noise, not a
// statistical claim).
func poisson(rng *rand.Rand, mu float64) int {
	if mu <= 0 {
		return 0
	}
	if mu < 30 {
		l := math.Exp(-mu)
		k, p := 0, 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := math.Round(mu + math.Sqrt(mu)*rng.NormFloat64())
	if n < 0 {
		return 0
	}
	return int(n)
}
