// Package its implements the paper's interrupted time series methodology:
// a negative binomial regression of weekly attack counts on monthly seasonal
// dummies, a movable-Easter dummy, a linear trend, and per-intervention
// window dummies; with effect sizes reported as percentage changes and 95%
// confidence intervals, an automatic duration search, and residual-based
// detection of candidate intervention windows.
package its

import (
	"fmt"
	"math"
	"sort"
	"time"

	"booters/internal/glm"
	"booters/internal/stats"
	"booters/internal/timeseries"
)

// Intervention is a dummy-variable window in the model: it takes value 1 for
// Weeks consecutive weeks starting at the week containing Start.
type Intervention struct {
	// Name labels the model column (e.g. "Xmas2018").
	Name string
	// Start is the date the intervention takes effect (the paper assumes an
	// immediate effect at the event date, possibly lagged for takedowns).
	Start time.Time
	// Weeks is the duration of the effect window in weeks.
	Weeks int
	// LagWeeks shifts the window start by whole weeks (the Webstresser
	// takedown "taking effect after a fortnight").
	LagWeeks int
}

// Window returns the first week of the effect window.
func (iv Intervention) Window() timeseries.Week {
	w := timeseries.WeekOf(iv.Start)
	for i := 0; i < iv.LagWeeks; i++ {
		w = w.Next()
	}
	return w
}

// Active reports whether week w falls inside the intervention window.
func (iv Intervention) Active(w timeseries.Week) bool {
	start := iv.Window()
	d := timeseries.WeeksBetween(start, w)
	return d >= 0 && d < iv.Weeks
}

// ModelSpec describes an ITS model to fit.
type ModelSpec struct {
	// Interventions are the dummy windows to include.
	Interventions []Intervention
	// Seasonal includes the eleven monthly dummies when true.
	Seasonal bool
	// Easter includes the movable-Easter dummy when true.
	Easter bool
	// Trend includes the linear week-index trend when true.
	Trend bool
	// Family selects Poisson or NB2 (the paper uses NB2; Poisson is the
	// ablation baseline).
	Family glm.Family
}

// DefaultSpec returns the paper's model: NB2 with seasonals, Easter and
// trend.
func DefaultSpec(interventions []Intervention) ModelSpec {
	return ModelSpec{
		Interventions: interventions,
		Seasonal:      true,
		Easter:        true,
		Trend:         true,
		Family:        glm.NegativeBinomial,
	}
}

// Design builds the design matrix and column names for series s under the
// spec. Column order matches Table 1: interventions, Easter, seasonal_2..12,
// time, _cons.
func Design(s *timeseries.Series, spec ModelSpec) (*stats.Dense, []string) {
	n := s.Len()
	var names []string
	for _, iv := range spec.Interventions {
		names = append(names, iv.Name)
	}
	if spec.Easter {
		names = append(names, "Easter")
	}
	if spec.Seasonal {
		names = append(names, timeseries.SeasonalNames()...)
	}
	if spec.Trend {
		names = append(names, "time")
	}
	names = append(names, "_cons")

	x := stats.NewDense(n, len(names))
	for i := 0; i < n; i++ {
		w := s.Week(i)
		col := 0
		for _, iv := range spec.Interventions {
			if iv.Active(w) {
				x.Set(i, col, 1)
			}
			col++
		}
		if spec.Easter {
			if timeseries.EasterWindow(w) {
				x.Set(i, col, 1)
			}
			col++
		}
		if spec.Seasonal {
			for _, v := range timeseries.SeasonalDesign(w) {
				x.Set(i, col, v)
				col++
			}
		}
		if spec.Trend {
			x.Set(i, col, float64(i))
			col++
		}
		x.Set(i, col, 1) // _cons
	}
	return x, names
}

// Effect summarises one intervention's fitted impact, in the units of
// Table 2.
type Effect struct {
	// Name is the intervention label.
	Name string
	// Start is the first week of the modelled window.
	Start timeseries.Week
	// Weeks is the modelled window duration.
	Weeks int
	// Coef is the underlying regression coefficient row.
	Coef glm.Coefficient
	// Mean is the central percentage change, 100*(exp(b)-1).
	Mean float64
	// Lower95 and Upper95 bound the percentage change CI.
	Lower95, Upper95 float64
	// P is the two-sided p-value of the coefficient.
	P float64
}

// Significant reports whether the effect is significant at 5%.
func (e Effect) Significant() bool { return e.P < 0.05 }

// StronglySignificant reports whether the effect is significant at 1%.
func (e Effect) StronglySignificant() bool { return e.P < 0.01 }

// Stars returns the paper's marker: "**" p<0.01, "*" p<0.05, "".
func (e Effect) Stars() string { return e.Coef.Stars() }

// Model is a fitted ITS model.
type Model struct {
	// Spec is the specification that was fitted.
	Spec ModelSpec
	// Series is the weekly series the model was fitted to.
	Series *timeseries.Series
	// Fit is the underlying GLM result.
	Fit *glm.Result
	// Effects holds one entry per intervention, in spec order.
	Effects []Effect
}

// Fit estimates the ITS model on series s.
func Fit(s *timeseries.Series, spec ModelSpec) (*Model, error) {
	if s.Len() < 20 {
		return nil, fmt.Errorf("its: series too short (%d weeks) for seasonal ITS model", s.Len())
	}
	x, names := Design(s, spec)
	res, err := glm.Fit(spec.Family, x, s.Values, names, glm.Options{})
	if err != nil {
		return nil, fmt.Errorf("its: %w", err)
	}
	m := &Model{Spec: spec, Series: s, Fit: res}
	for _, iv := range spec.Interventions {
		c, err := res.Coef(iv.Name)
		if err != nil {
			return nil, err
		}
		lo, hi := c.PercentChangeCI()
		m.Effects = append(m.Effects, Effect{
			Name:    iv.Name,
			Start:   iv.Window(),
			Weeks:   iv.Weeks,
			Coef:    c,
			Mean:    c.PercentChange(),
			Lower95: lo,
			Upper95: hi,
			P:       c.P,
		})
	}
	return m, nil
}

// Effect returns the named effect, or an error if absent.
func (m *Model) Effect(name string) (Effect, error) {
	for _, e := range m.Effects {
		if e.Name == name {
			return e, nil
		}
	}
	return Effect{}, fmt.Errorf("its: no effect named %q", name)
}

// FittedSeries returns the model's fitted weekly means aligned with the
// input series (the dark line of Figure 2).
func (m *Model) FittedSeries() *timeseries.Series {
	out := timeseries.NewSeries(m.Series.StartWeek, m.Series.Len())
	copy(out.Values, m.Fit.Fitted)
	return out
}

// CounterfactualSeries returns the model's prediction with all intervention
// dummies forced to zero: the expected attack counts had no intervention
// occurred.
func (m *Model) CounterfactualSeries() *timeseries.Series {
	out := timeseries.NewSeries(m.Series.StartWeek, m.Series.Len())
	spec := m.Spec
	for i := 0; i < m.Series.Len(); i++ {
		eta := m.Fit.LinearPredictor[i]
		w := m.Series.Week(i)
		col := 0
		for _, iv := range spec.Interventions {
			if iv.Active(w) {
				eta -= m.Fit.Coefficients[col].Estimate
			}
			col++
		}
		out.Values[i] = math.Exp(eta)
	}
	return out
}

// durationParsimony is the log-likelihood slack within which a shorter
// window is preferred over a longer one (half the chi-squared(1) 95%
// critical value, i.e. a likelihood-ratio test cannot distinguish them).
const durationParsimony = 1.92

// SearchDuration refits the model varying one intervention's duration from
// minWeeks to maxWeeks and returns the shortest duration whose
// log-likelihood is within durationParsimony of the maximum, together with
// its model. This implements the paper's procedure of choosing window
// lengths "fitting for optimum log-pseudolikelihood" while preferring
// parsimonious windows when the likelihood is flat.
func SearchDuration(s *timeseries.Series, spec ModelSpec, name string, minWeeks, maxWeeks int) (int, *Model, error) {
	idx := -1
	for i, iv := range spec.Interventions {
		if iv.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, nil, fmt.Errorf("its: SearchDuration: no intervention named %q", name)
	}
	if minWeeks < 1 || maxWeeks < minWeeks {
		return 0, nil, fmt.Errorf("its: SearchDuration: invalid range [%d, %d]", minWeeks, maxWeeks)
	}
	type trialFit struct {
		weeks int
		model *Model
	}
	var fits []trialFit
	bestLL := math.Inf(-1)
	for wks := minWeeks; wks <= maxWeeks; wks++ {
		trial := spec
		trial.Interventions = append([]Intervention(nil), spec.Interventions...)
		trial.Interventions[idx].Weeks = wks
		m, err := Fit(s, trial)
		if err != nil {
			continue
		}
		fits = append(fits, trialFit{weeks: wks, model: m})
		if m.Fit.LogLik > bestLL {
			bestLL = m.Fit.LogLik
		}
	}
	if len(fits) == 0 {
		return 0, nil, fmt.Errorf("its: SearchDuration: no duration in [%d, %d] produced a fit", minWeeks, maxWeeks)
	}
	for _, f := range fits { // ascending weeks: first within slack wins
		if f.model.Fit.LogLik >= bestLL-durationParsimony {
			return f.weeks, f.model, nil
		}
	}
	return fits[len(fits)-1].weeks, fits[len(fits)-1].model, nil
}

// SearchRadius is the duration-search radius every model fit in the
// reproduction passes to SearchAllDurations: each window may move up to
// three weeks either side of its initial duration.
const SearchRadius = 3

// SearchAllDurations greedily refines every intervention's duration in
// chronological window order, holding the others fixed while scanning
// durations within radius weeks of each intervention's initial value for
// the one that maximizes the log-likelihood. The initial value is the
// length of the residual drop the window was located from (the paper scans
// for "periods in the time series which drop significantly below the
// modelled series", then fits "for optimum log-pseudolikelihood"), so the
// search is local: unconstrained search lets a dummy wander onto
// unmodelled structure elsewhere in the series. Windows are also capped so
// they cannot run into the next intervention's window — the paper's
// modelled windows are disjoint, and letting one dummy cover another's
// weeks splits effects between them. It returns the final model.
func SearchAllDurations(s *timeseries.Series, spec ModelSpec, radius int) (*Model, error) {
	if radius < 0 {
		return nil, fmt.Errorf("its: SearchAllDurations: negative radius %d", radius)
	}
	order := make([]int, len(spec.Interventions))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return spec.Interventions[order[a]].Window().Before(spec.Interventions[order[b]].Window())
	})
	current := spec
	current.Interventions = append([]Intervention(nil), spec.Interventions...)
	var model *Model
	for oi, idx := range order {
		w0 := current.Interventions[idx].Weeks
		lo := w0 - radius
		if lo < 2 {
			lo = 2
		}
		hi := w0 + radius
		if oi+1 < len(order) {
			next := current.Interventions[order[oi+1]]
			gap := timeseries.WeeksBetween(current.Interventions[idx].Window(), next.Window())
			if gap > 0 && gap < hi {
				hi = gap
			}
		}
		if hi < lo {
			hi = lo
		}
		best, m, err := SearchDuration(s, current, current.Interventions[idx].Name, lo, hi)
		if err != nil {
			return nil, err
		}
		current.Interventions[idx].Weeks = best
		model = m
	}
	if model == nil {
		return Fit(s, current)
	}
	return model, nil
}

// Candidate is a window where the observed series drops significantly below
// the seasonal-trend baseline model.
type Candidate struct {
	// Start is the first week of the detected drop.
	Start timeseries.Week
	// Weeks is the run length of consecutive below-threshold weeks.
	Weeks int
	// MeanResidual is the average Pearson residual over the window
	// (negative for drops).
	MeanResidual float64
}

// DetectDrops fits the baseline model (seasonals + Easter + trend, no
// interventions) and scans the Pearson residuals for runs of at least
// minRun consecutive weeks below -threshold. These runs are the candidate
// intervention windows the paper then matches to police actions.
func DetectDrops(s *timeseries.Series, family glm.Family, threshold float64, minRun int) ([]Candidate, error) {
	if threshold <= 0 {
		threshold = 1
	}
	if minRun < 1 {
		minRun = 2
	}
	spec := ModelSpec{Seasonal: true, Easter: true, Trend: true, Family: family}
	m, err := Fit(s, spec)
	if err != nil {
		return nil, err
	}
	var out []Candidate
	res := m.Fit.PearsonResiduals
	i := 0
	for i < len(res) {
		if res[i] >= -threshold {
			i++
			continue
		}
		j := i
		var sum float64
		for j < len(res) && res[j] < -threshold {
			sum += res[j]
			j++
		}
		if j-i >= minRun {
			out = append(out, Candidate{
				Start:        s.Week(i),
				Weeks:        j - i,
				MeanResidual: sum / float64(j-i),
			})
		}
		i = j
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start.Before(out[b].Start) })
	return out, nil
}

// MatchCandidates pairs detected drop windows with the catalogue of known
// interventions: a candidate matches an event if the event date falls within
// maxLagWeeks weeks before the candidate window starts (or inside it). It
// returns, for each candidate, the index into events of the matched event or
// -1.
func MatchCandidates(cands []Candidate, events []Intervention, maxLagWeeks int) []int {
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = -1
		bestLag := maxLagWeeks + 1
		for j, ev := range events {
			evWeek := timeseries.WeekOf(ev.Start)
			lag := timeseries.WeeksBetween(evWeek, c.Start)
			if lag < 0 {
				// Event after the drop started: allow the event to fall
				// inside the window (news of sentencing mid-drop).
				if -lag < c.Weeks {
					lag = 0
				} else {
					continue
				}
			}
			if lag <= maxLagWeeks && lag < bestLag {
				bestLag = lag
				out[i] = j
			}
		}
	}
	return out
}
