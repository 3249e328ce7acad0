package scenario

import (
	"fmt"

	"booters/internal/dataset"
	"booters/internal/market"
	"booters/internal/scrape"
	"booters/internal/timeseries"
)

// selfReportDemandScale lifts the scenario's attack-flow counts into
// booter-counter magnitudes before feeding the market simulator, so
// self-reported totals look like the paper's (tens of thousands of
// attacks) rather than honeypot flow counts.
const selfReportDemandScale = 1000

// ScrapeEvent is one observation from the streaming scrape source: what
// the paper's weekly scraper saw on one booter's front page — alive or
// not, and the attack counter it published. Events arrive in week-major
// order, sites in a stable order within each week.
type ScrapeEvent struct {
	// Week is the 0-based scenario week of the observation.
	Week int `json:"week"`
	// Site is the booter's name.
	Site string `json:"site"`
	// Up reports whether the site answered.
	Up bool `json:"up"`
	// Total is the published lifetime attack counter (0 when down).
	Total float64 `json:"total"`
}

// generateSelfReport runs the scrape side of a scenario: a market
// simulation (seeded from the scenario, takedowns mapped to supply
// shocks) serves the configured share of planned demand, and each
// provider's weekly counter observation is emitted as a ScrapeEvent next
// to the reference self-report panel.
func generateSelfReport(cfg Config, planned []float64, run *Run) error {
	var shocks []market.Shock
	for _, td := range cfg.Takedowns {
		shocks = append(shocks, market.Shock{
			Week:             td.Week,
			KillLargest:      1,
			KillFraction:     0.25 * td.DropPct / 100,
			Permanent:        true,
			EntrySuppression: 0.3,
			EntryWeeks:       3,
		})
	}
	demand := make([]float64, cfg.Weeks)
	for w := range demand {
		demand[w] = planned[w] * cfg.SelfReport.Share * selfReportDemandScale
	}
	sr, err := selfReportPanel(timeseries.WeekOf(cfg.Start), cfg.Seed, shocks, demand)
	if err != nil {
		return err
	}

	// Emit the event stream in week-major order, sites in provider order.
	events := make([]ScrapeEvent, 0, cfg.Weeks*len(sr.Sites))
	for w := 0; w < cfg.Weeks; w++ {
		for _, h := range sr.Sites {
			o := h.Obs[w]
			events = append(events, ScrapeEvent{Week: w, Site: h.Name, Up: o.Up, Total: o.Total})
		}
	}
	run.Scrape = events
	run.SelfReport = sr
	return nil
}

// selfReportPanel is the one self-report generator, for the paper world
// and the catalog alike: a market simulation from start (seeded seed+1,
// with the given supply shocks) is offered demand[w] in week w, and the
// scraper collects every provider's weekly counter observation,
// replayed through its counter style (inflated, wiping, rounded).
func selfReportPanel(start timeseries.Week, seed int64, shocks []market.Shock, demand []float64) (*dataset.SelfReportPanel, error) {
	mcfg := market.DefaultConfig(len(demand), seed+1)
	mcfg.Shocks = shocks
	sim, err := market.New(mcfg)
	if err != nil {
		return nil, err
	}
	for _, d := range demand {
		if _, err := sim.Step(d); err != nil {
			return nil, err
		}
	}
	sites := scrape.Observe(sim, seed)
	return &dataset.SelfReportPanel{
		Start:  start,
		Weeks:  len(demand),
		Sites:  sites,
		Churn:  scrape.ChurnSeries(sites, len(demand)),
		Market: sim,
	}, nil
}

// ScrapeCollector accumulates a streaming scrape source (ScrapeEvents in
// any week-ascending order per site) back into site histories — the
// consumer side that populates a panel's self-report from ingested
// events instead of a bundled simulation.
type ScrapeCollector struct {
	sites map[string]*scrape.SiteHistory
	order []string
	weeks int
}

// NewScrapeCollector returns an empty collector.
func NewScrapeCollector() *ScrapeCollector {
	return &ScrapeCollector{sites: make(map[string]*scrape.SiteHistory)}
}

// Observe folds one event in. Events for a site must arrive in
// non-decreasing week order (the scrape stream's natural order).
func (c *ScrapeCollector) Observe(ev ScrapeEvent) error {
	h, ok := c.sites[ev.Site]
	if !ok {
		h = &scrape.SiteHistory{Name: ev.Site}
		c.sites[ev.Site] = h
		c.order = append(c.order, ev.Site)
	}
	if n := len(h.Obs); n > 0 && h.Obs[n-1].Week >= ev.Week {
		return fmt.Errorf("scenario: scrape event for %q week %d after week %d", ev.Site, ev.Week, h.Obs[n-1].Week)
	}
	h.Obs = append(h.Obs, scrape.Observation{Week: ev.Week, Up: ev.Up, Total: ev.Total})
	if ev.Week+1 > c.weeks {
		c.weeks = ev.Week + 1
	}
	return nil
}

// Sites returns the collected histories in first-seen order.
func (c *ScrapeCollector) Sites() []*scrape.SiteHistory {
	out := make([]*scrape.SiteHistory, len(c.order))
	for i, name := range c.order {
		out[i] = c.sites[name]
	}
	return out
}

// Weeks returns the number of weeks observed so far.
func (c *ScrapeCollector) Weeks() int { return c.weeks }

// Panel builds the self-report panel from the collected stream: sites,
// churn series, no bundled simulation (the collector only saw events).
func (c *ScrapeCollector) Panel(start timeseries.Week) *dataset.SelfReportPanel {
	sites := c.Sites()
	return &dataset.SelfReportPanel{
		Start: start,
		Weeks: c.weeks,
		Sites: sites,
		Churn: scrape.ChurnSeries(sites, c.weeks),
	}
}
