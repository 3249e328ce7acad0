package dataset

import (
	"fmt"
	"math/rand"
	"time"

	"booters/internal/market"
	"booters/internal/scrape"
	"booters/internal/timeseries"
)

// BooterShareOfDemand is the fraction of the observed global attack volume
// attributed to the self-reporting booter population (the panel covers "75%
// or more of active booters").
const BooterShareOfDemand = 0.8

// generateSelfReport runs the market simulator over the self-report window
// (Nov 2017 - Mar 2019), feeding it the panel's global demand, applying the
// supply-side shocks of the two structural interventions, and collecting
// weekly counter observations exactly as the paper's scraper did.
func generateSelfReport(cfg Config, p *Panel, rng *rand.Rand) (*SelfReportPanel, error) {
	start := timeseries.WeekOf(SelfReportStart)
	offset := timeseries.WeeksBetween(p.Start, start)
	if offset < 0 {
		return nil, fmt.Errorf("dataset: self-report start precedes panel start")
	}
	weeks := p.Weeks - offset
	if weeks <= 0 {
		return nil, fmt.Errorf("dataset: self-report window is empty")
	}

	webstresserWeek := timeseries.WeeksBetween(start, timeseries.WeekOf(mkdate(2018, time.April, 24)))
	xmasWeek := timeseries.WeeksBetween(start, timeseries.WeekOf(mkdate(2018, time.December, 19)))

	mcfg := market.DefaultConfig(weeks, cfg.Seed+1)
	mcfg.Shocks = []market.Shock{
		{
			// Webstresser: the biggest booter seized; resellers that
			// subcontracted to it die in a spike; new booters appear after
			// a couple of weeks (entry is untouched).
			Week:                 webstresserWeek,
			KillLargest:          1,
			KillSubcontractorsOf: true,
			Permanent:            true,
		},
		{
			// Xmas2018: two of the three majors closed permanently plus a
			// sweep of smaller services; shop-front discovery suppressed;
			// one of the closed booters returns under a similar name in
			// March (11 weeks later).
			Week:             xmasWeek,
			KillLargest:      2,
			KillFraction:     0.2,
			Permanent:        true,
			EntrySuppression: 0.3,
			EntryWeeks:       6,
			ResurrectAfter:   11,
		},
	}
	sim, err := market.New(mcfg)
	if err != nil {
		return nil, err
	}

	for w := 0; w < weeks; w++ {
		demand := p.Global.Values[offset+w] * BooterShareOfDemand
		// From March 2019 the self-reported totals keep growing even as
		// UDP-reflection counts flatten: the move toward direct/L7 attacks
		// invisible to the honeypots.
		wk := timeseries.Week{Start: start.Start.AddDate(0, 0, 7*w)}
		if wk.Start.After(mkdate(2019, time.February, 28)) {
			demand *= 1.15
		}
		if _, err := sim.Step(demand); err != nil {
			return nil, err
		}
	}

	// Collect: one observation per provider per week, exactly what the
	// scraper sees (a page with a counter, or a dead site).
	sites := scrape.Observe(sim, cfg.Seed)
	return &SelfReportPanel{
		Start:  start,
		Weeks:  weeks,
		Sites:  sites,
		Churn:  scrape.ChurnSeries(sites, weeks),
		Market: sim,
	}, nil
}

// WeeklySelfReportTotal sums every site's weekly attacks into one series
// (the height of Figure 7's stack).
func (sr *SelfReportPanel) WeeklySelfReportTotal() *timeseries.Series {
	out := timeseries.NewSeries(sr.Start, sr.Weeks)
	for _, h := range sr.Sites {
		for i, v := range h.WeeklyAttacks() {
			if i < sr.Weeks {
				out.Values[i] += v
			}
		}
	}
	return out
}
