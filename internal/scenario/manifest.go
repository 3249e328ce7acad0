package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"booters/internal/its"
	"booters/internal/timeseries"
)

// InjectedEffect is one intervention's ground truth in the manifest: the
// window, the injected parameters, and the NB2 coefficient the fit must
// recover (within CoefTolerance) when the scenario's weekly panel is
// regressed with this window as a dummy.
type InjectedEffect struct {
	// Name is the intervention label (the model column name).
	Name string `json:"name"`
	// Week and Weeks locate the effect window in scenario weeks.
	Week int `json:"week"`
	// Weeks is the window length.
	Weeks int `json:"weeks"`
	// DropPct echoes the injected takedown's volume drop.
	DropPct float64 `json:"drop_pct,omitempty"`
	// MigrationPct echoes the injected migration ramp.
	MigrationPct float64 `json:"migration_pct,omitempty"`
	// BoostPct echoes the injected flash-sale boost.
	BoostPct float64 `json:"boost_pct,omitempty"`
	// ExpectedCoef is the coefficient the NB2 fit should recover: the
	// window-mean log multiplier (exactly ln(1-drop) for a takedown
	// without migration).
	ExpectedCoef float64 `json:"expected_coef"`
	// ExpectedMeanPct is the percentage-change form, 100*(exp(coef)-1).
	ExpectedMeanPct float64 `json:"expected_mean_pct"`
	// CoefTolerance is the recovery assertion bound on the coefficient;
	// 0 means the effect's shape is not analytic (market mode, the paper
	// world) and no recovery is asserted.
	CoefTolerance float64 `json:"coef_tolerance,omitempty"`
	// Countries is the paper world's planted effect on each victim
	// country, one row per country.
	Countries []CountryEffect `json:"countries,omitempty"`
	// ProtocolsHit names the protocols whose share of a country's attacks
	// the paper world suppresses while a drop is active (Figure 6).
	ProtocolsHit []string `json:"protocols_hit,omitempty"`
}

// CountryEffect is an intervention's planted effect on one victim
// country's expected weekly attacks: Pct percent over the window
// [Week, Week+Weeks). Weeks 0 plants no effect.
type CountryEffect struct {
	// Country is a geo country code.
	Country string `json:"country"`
	// Week is the onset in scenario weeks.
	Week int `json:"week"`
	// Weeks is the window length.
	Weeks int `json:"weeks"`
	// Pct is the planted percentage change (negative = drop).
	Pct float64 `json:"pct"`
}

// Active reports whether scenario week w lies in the effect's window.
func (ce CountryEffect) Active(w int) bool { return w >= ce.Week && w < ce.Week+ce.Weeks }

// Country returns the effect's planted row for country c, or no effect
// when c has no row.
func (e InjectedEffect) Country(c string) CountryEffect {
	for _, ce := range e.Countries {
		if ce.Country == c {
			return ce
		}
	}
	return CountryEffect{Country: c}
}

// MitigationTruth is the per-victim mitigation ground truth: what an
// ingest.MitigationSink with this cap must report over the scenario's
// stream.
type MitigationTruth struct {
	// PerVictimWeekly is the admitted-attacks cap per victim per week.
	PerVictimWeekly int `json:"per_victim_weekly"`
	// VictimPool is the roster size the victims were drawn from.
	VictimPool int `json:"victim_pool"`
	// ExpectedAdmitted is the attack-flow total under the cap.
	ExpectedAdmitted int `json:"expected_admitted"`
	// ExpectedMitigated is the attack-flow total over the cap.
	ExpectedMitigated int `json:"expected_mitigated"`
}

// HostileTruth summarises the hostile transforms applied to the twin
// stream (the invariant under test: its panel equals the clean panel).
type HostileTruth struct {
	// DuplicatePct echoes the spec's duplicated-packet share.
	DuplicatePct float64 `json:"duplicate_pct,omitempty"`
	// ReorderSeconds echoes the spec's reorder bound.
	ReorderSeconds float64 `json:"reorder_seconds,omitempty"`
	// SkewSeconds echoes the spec's per-sensor clock-skew bound.
	SkewSeconds float64 `json:"skew_seconds,omitempty"`
	// HostilePackets is the hostile stream's length (clean length plus
	// inserted duplicates).
	HostilePackets int `json:"hostile_packets"`
}

// SelfReportTruth summarises the scrape side: how many sites reported,
// how many events the stream carries, and the weeks where takedown
// shocks must show up as churn death spikes.
type SelfReportTruth struct {
	// Share is the booter population's share of planned demand.
	Share float64 `json:"share"`
	// Sites is the number of booters the scrape stream observed.
	Sites int `json:"sites"`
	// Events is the scrape stream's event count.
	Events int `json:"events"`
	// TakedownWeeks are scenario weeks with a mapped supply shock.
	TakedownWeeks []int `json:"takedown_weeks,omitempty"`
}

// Manifest is a scenario's recorded ground truth: identity, span, stream
// totals, the planned weekly attack panel, and per-primitive truths.
// Manifests round-trip through JSON (golden fixtures under testdata/)
// and drive every recovery assertion.
type Manifest struct {
	// Name identifies the scenario.
	Name string `json:"name"`
	// Seed is the scenario's deterministic seed.
	Seed int64 `json:"seed"`
	// Start is the first scenario week's Monday.
	Start time.Time `json:"start"`
	// Weeks is the span length.
	Weeks int `json:"weeks"`
	// Sensors is the fleet size the stream was generated for.
	Sensors int `json:"sensors"`
	// Packets is the clean stream's packet total.
	Packets int `json:"packets"`
	// Attacks is the clean stream's attack-flow total.
	Attacks int `json:"attacks"`
	// Scans is the clean stream's scan-flow total.
	Scans int `json:"scans"`
	// PlannedWeekly is the expected weekly attack panel: the pipeline's
	// global series over the scenario span must equal it exactly.
	PlannedWeekly []float64 `json:"planned_weekly"`
	// Effects are the injected interventions' ground truths.
	Effects []InjectedEffect `json:"effects,omitempty"`
	// Mitigation carries the per-victim mitigation truth, when configured.
	Mitigation *MitigationTruth `json:"mitigation,omitempty"`
	// Hostile carries the hostile-transform truth, when configured.
	Hostile *HostileTruth `json:"hostile,omitempty"`
	// SelfReport carries the scrape-side truth, when configured.
	SelfReport *SelfReportTruth `json:"self_report,omitempty"`
	// PlantedMu is the paper world's noise-free planted global weekly
	// expectation.
	PlantedMu []float64 `json:"planted_mu,omitempty"`
	// CounterfactualMu is the paper world's global weekly expectation with
	// every intervention effect removed.
	CounterfactualMu []float64 `json:"counterfactual_mu,omitempty"`
}

// buildManifest records the run's ground truth.
func buildManifest(cfg Config, planned []float64, run *Run, attacks, scans, mitAdmitted, mitMitigated int) *Manifest {
	m := &Manifest{
		Name:          cfg.Name,
		Seed:          cfg.Seed,
		Start:         cfg.Start,
		Weeks:         cfg.Weeks,
		Sensors:       cfg.Sensors,
		Packets:       len(run.Packets),
		Attacks:       attacks,
		Scans:         scans,
		PlannedWeekly: planned,
	}
	analytic := cfg.Market == nil
	for _, td := range cfg.Takedowns {
		eff := InjectedEffect{
			Name:         td.Name,
			Week:         td.Week,
			Weeks:        td.Weeks,
			DropPct:      td.DropPct,
			MigrationPct: td.MigrationPct,
		}
		if analytic {
			var sum float64
			for j := td.Week; j < td.Week+td.Weeks; j++ {
				sum += math.Log(td.multiplier(j))
			}
			eff.ExpectedCoef = sum / float64(td.Weeks)
			eff.ExpectedMeanPct = 100 * (math.Exp(eff.ExpectedCoef) - 1)
			eff.CoefTolerance = td.CoefTolerance
			if eff.CoefTolerance <= 0 {
				eff.CoefTolerance = defaultTolerance(cfg, td.MigrationPct > 0)
			}
		}
		m.Effects = append(m.Effects, eff)
	}
	for _, fs := range cfg.FlashSales {
		eff := InjectedEffect{
			Name:     fs.Name,
			Week:     fs.Week,
			Weeks:    fs.Weeks,
			BoostPct: fs.BoostPct,
		}
		eff.ExpectedCoef = math.Log(1 + fs.BoostPct/100)
		eff.ExpectedMeanPct = fs.BoostPct
		eff.CoefTolerance = fs.CoefTolerance
		if eff.CoefTolerance <= 0 {
			eff.CoefTolerance = defaultTolerance(cfg, false)
		}
		if !analytic {
			// Market noise rides on top of the sale; keep the assertion
			// but loosen it.
			eff.CoefTolerance *= 3
		}
		m.Effects = append(m.Effects, eff)
	}
	if cfg.Mitigation != nil {
		m.Mitigation = &MitigationTruth{
			PerVictimWeekly:   cfg.Mitigation.PerVictimWeekly,
			VictimPool:        cfg.VictimPool,
			ExpectedAdmitted:  mitAdmitted,
			ExpectedMitigated: mitMitigated,
		}
	}
	if h := cfg.Hostile; h != nil {
		m.Hostile = &HostileTruth{
			DuplicatePct:   h.DuplicatePct,
			ReorderSeconds: h.ReorderSeconds,
			SkewSeconds:    h.SkewSeconds,
			HostilePackets: len(run.Hostile),
		}
	}
	if sr := cfg.SelfReport; sr != nil {
		truth := &SelfReportTruth{
			Share:  sr.Share,
			Sites:  len(run.SelfReport.Sites),
			Events: len(run.Scrape),
		}
		for _, td := range cfg.Takedowns {
			truth.TakedownWeeks = append(truth.TakedownWeeks, td.Week)
		}
		m.SelfReport = truth
	}
	return m
}

// defaultTolerance picks a recovery bound from the scenario's noise and
// ramp settings: exact plans recover to rounding error, Poisson noise and
// migration ramps (a time-varying effect summarised by one dummy) earn
// wider bounds.
func defaultTolerance(cfg Config, ramped bool) float64 {
	tol := 0.05
	if ramped {
		tol = 0.12
	}
	if cfg.Noise == NoisePoisson {
		tol += 0.15
	}
	return tol
}

// StartWeek returns the first scenario week.
func (m *Manifest) StartWeek() timeseries.Week { return timeseries.WeekOf(m.Start) }

// End returns the last scenario day (inclusive) — the pipeline span end.
func (m *Manifest) End() time.Time { return m.Start.AddDate(0, 0, 7*m.Weeks-1) }

// Window returns the scenario's half-open time window [from, to) in the
// form HTTP model queries take.
func (m *Manifest) Window() (from, to time.Time) {
	return m.Start, m.Start.AddDate(0, 0, 7*m.Weeks)
}

// RequiresUnordered reports whether the recorded stream was reordered
// (Run.RequiresUnordered at generation time), so a replay of it needs an
// order-tolerant pipeline.
func (m *Manifest) RequiresUnordered() bool {
	return m.Hostile != nil && m.Hostile.ReorderSeconds > 0
}

// Interventions returns the manifest's effects as model dummy windows.
func (m *Manifest) Interventions() []its.Intervention {
	ivs := make([]its.Intervention, 0, len(m.Effects))
	for _, e := range m.Effects {
		ivs = append(ivs, its.Intervention{
			Name:  e.Name,
			Start: m.Start.AddDate(0, 0, 7*e.Week),
			Weeks: e.Weeks,
		})
	}
	return ivs
}

// PlannedSeries returns the planned weekly attack panel as a series.
func (m *Manifest) PlannedSeries() *timeseries.Series {
	s := timeseries.NewSeries(m.StartWeek(), m.Weeks)
	copy(s.Values, m.PlannedWeekly)
	return s
}

// GroundTruthEffect returns the planted percentage change in global
// expected attacks over the window [start, start+weeks),
// sum(PlantedMu)/sum(CounterfactualMu)-1: the exact quantity an unbiased
// global intervention estimate should recover for a dummy spanning that
// window. The second return is false if the window lies outside the span
// or the manifest records no planted expectation.
func (m *Manifest) GroundTruthEffect(start timeseries.Week, weeks int) (float64, bool) {
	i := (&timeseries.Series{StartWeek: m.StartWeek(), Values: m.PlantedMu}).Index(start)
	if i < 0 || weeks <= 0 || i+weeks > len(m.PlantedMu) || len(m.CounterfactualMu) != len(m.PlantedMu) {
		return 0, false
	}
	var planted, counterfactual float64
	for w := i; w < i+weeks; w++ {
		planted += m.PlantedMu[w]
		counterfactual += m.CounterfactualMu[w]
	}
	if counterfactual == 0 {
		return 0, false
	}
	return 100 * (planted/counterfactual - 1), true
}

// VerifyPanel checks that got — a pipeline's weekly global attack series
// covering the scenario span — equals the planned panel exactly. The
// series may be wider than the span; it is sliced to it first.
func (m *Manifest) VerifyPanel(got *timeseries.Series) error {
	from := m.StartWeek()
	to := timeseries.Week{Start: m.Start.AddDate(0, 0, 7*m.Weeks)}
	s := got.Slice(from, to)
	if s.Len() != m.Weeks {
		return fmt.Errorf("scenario: panel covers %d weeks of the scenario span, want %d", s.Len(), m.Weeks)
	}
	for w, want := range m.PlannedWeekly {
		if s.Values[w] != want {
			return fmt.Errorf("scenario: week %d (%s): panel has %v attacks, plan says %v",
				w, s.Week(w), s.Values[w], want)
		}
	}
	return nil
}

// Fit runs the paper's NB2 model on the scenario span of the given global
// weekly series, with the manifest's effects as fixed-duration dummies.
func (m *Manifest) Fit(global *timeseries.Series) (*its.Model, error) {
	if len(m.Effects) == 0 {
		return nil, fmt.Errorf("scenario: manifest %q has no effects to fit", m.Name)
	}
	from := m.StartWeek()
	to := timeseries.Week{Start: m.Start.AddDate(0, 0, 7*m.Weeks)}
	s := global.Slice(from, to)
	return its.Fit(s, its.DefaultSpec(m.Interventions()))
}

// VerifyFit checks every asserted effect: the fitted coefficient must lie
// within the manifest's tolerance of the injected ground truth.
func (m *Manifest) VerifyFit(model *its.Model) error {
	for _, want := range m.Effects {
		if want.CoefTolerance <= 0 {
			continue
		}
		got, err := model.Effect(want.Name)
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if diff := math.Abs(got.Coef.Estimate - want.ExpectedCoef); diff > want.CoefTolerance {
			return fmt.Errorf("scenario: effect %q: fitted coefficient %.4f vs injected %.4f (|diff| %.4f > tolerance %.4f; fitted mean %.1f%%, injected %.1f%%)",
				want.Name, got.Coef.Estimate, want.ExpectedCoef, diff, want.CoefTolerance, got.Mean, want.ExpectedMeanPct)
		}
	}
	return nil
}

// JSON renders the manifest as indented JSON (the golden-fixture and
// -scenario CLI output format).
func (m *Manifest) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the manifest's JSON to path.
func (m *Manifest) WriteFile(path string) error {
	b, err := m.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ManifestFile is the name of the manifest recorded next to a spool's
// segments: the ground truth a replay of the spool is verified and
// fitted against. Segment discovery reads only .seg files, so the
// manifest is inert to replay.
const ManifestFile = "manifest.json"

// ReadSpoolManifest returns the manifest recorded in the spool directory
// dir, or nil when the spool has none (it was not recorded from a
// scenario). A manifest that exists but cannot be read or decoded is an
// error, never a silent nil.
func ReadSpoolManifest(dir string) (*Manifest, error) {
	m, err := ReadManifest(filepath.Join(dir, ManifestFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return m, err
}

// ReadManifest loads a manifest written by WriteFile.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("scenario: manifest %s: %w", path, err)
	}
	return &m, nil
}
