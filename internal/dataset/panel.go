// Package dataset holds the reproduction's two datasets as data: the
// five-year weekly panel of reflected-UDP attack counts (global, per
// victim country, per protocol) and the 18-month booter self-report
// panel, their CSV exports and the CSV loader for bringing your own
// measurements, and the §3 honeypot coverage exhibit. The paper's world
// that generates these panels, with its planted ground truth, is
// scenario.GeneratePaper.
package dataset

import (
	"time"

	"booters/internal/market"
	"booters/internal/scrape"
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

// Panel is the reproduction dataset: the weekly attack panel plus the
// booter self-report panel. Its planted ground truth, when it was
// generated, is in the generator's scenario.Manifest.
type Panel struct {
	// Panel is the weekly attack panel: the generator's five-year span,
	// or one week per row of a loaded CSV.
	*timeseries.Panel

	// SelfReport holds the booter self-report panel; nil for a panel
	// loaded from CSV.
	SelfReport *SelfReportPanel
}

// SelfReportPanel is the second dataset: weekly scrapes of booters'
// self-reported attack counters.
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
	// such as the post-Xmas2018 top-provider share); nil when the panel
	// was collected from a scrape-event stream.
	Market *market.Simulation
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
