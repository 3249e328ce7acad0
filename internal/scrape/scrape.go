// Package scrape implements the paper's second data pipeline: weekly
// collection of booter websites' self-reported attack counters, liveness
// tracking that yields market births/deaths/resurrections, and the
// data-quality screens the paper applies before trusting the counters
// (White's heteroskedasticity test, the skewness/kurtosis normality test,
// and a prime-divisibility screen for multiplier fakery).
package scrape

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"booters/internal/market"
	"booters/internal/stats"
)

// RenderPage formats the PHP-style footer the paper quotes booter source
// code producing ("<li>Users: ... Attacks: ...</li>").
func RenderPage(siteName string, users, attacks int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>%s</title></head><body>\n", siteName)
	fmt.Fprintf(&b, "<h1>%s — professional stress testing</h1>\n", siteName)
	fmt.Fprintf(&b, "<ul><li>Users: %d Attacks: %d</li></ul>\n", users, attacks)
	b.WriteString("</body></html>\n")
	return b.String()
}

var counterRE = regexp.MustCompile(`Users:\s*(\d+)\s*Attacks:\s*(\d+)`)

// ParsePage extracts the user and attack counters from a booter page body.
func ParsePage(body string) (users, attacks int64, err error) {
	m := counterRE.FindStringSubmatch(body)
	if m == nil {
		return 0, 0, fmt.Errorf("scrape: no counter block found in page")
	}
	users, err = strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("scrape: bad user counter: %w", err)
	}
	attacks, err = strconv.ParseInt(m[2], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("scrape: bad attack counter: %w", err)
	}
	return users, attacks, nil
}

// Observation is one weekly collection result for one booter.
type Observation struct {
	// Week is the collection week index.
	Week int
	// Up reports whether the site responded.
	Up bool
	// Total is the reported cumulative attack counter (valid when Up).
	Total float64
}

// SiteHistory is the collected time line for one booter.
type SiteHistory struct {
	// Name identifies the booter.
	Name string
	// Obs holds one observation per collection week.
	Obs []Observation
}

// Observe collects a stepped market simulation the way the paper's weekly
// scraper did: one SiteHistory per provider, in provider order, with one
// Observation per simulated week — the site down before the provider was
// born and in weeks it served nothing, otherwise up with its published
// lifetime counter. The counter replays the provider's style on its
// running total: inflated counters start from an offset, wiping counters
// reset to zero at random (drawn from seed and the provider ID), and
// rounded counters show only whole thousands.
func Observe(sim *market.Simulation, seed int64) []*SiteHistory {
	recs := sim.Records()
	weeks := len(recs)
	var sites []*SiteHistory
	for _, prov := range sim.Providers() {
		h := &SiteHistory{Name: prov.Name, Obs: make([]Observation, 0, weeks)}
		var base, running float64
		if prov.Counter == market.Inflated {
			base = prov.InflationOffset
		}
		wipeRng := rand.New(rand.NewSource(seed + int64(prov.ID)*7919))
		for w, rec := range recs {
			n := rec.ServedByProvider[prov.ID]
			running += n
			if prov.BornWeek > w {
				h.Obs = append(h.Obs, Observation{Week: w, Up: false})
				continue
			}
			up := n > 0
			total := running + base
			if prov.Counter == market.Wiping && up && wipeRng.Float64() < prov.WipeRate {
				base = -running
				total = 0
			}
			if prov.Counter == market.Rounded {
				total = float64(int(total/1000) * 1000)
			}
			h.Obs = append(h.Obs, Observation{Week: w, Up: up, Total: total})
		}
		sites = append(sites, h)
	}
	return sites
}

// WeeklyAttacks differences the cumulative counter into per-week attack
// counts. Weeks where the site was down yield 0; counter resets (wipes)
// yield 0 for the reset week rather than a negative count.
func (h *SiteHistory) WeeklyAttacks() []float64 {
	out := make([]float64, len(h.Obs))
	var prev float64
	var havePrev bool
	for i, o := range h.Obs {
		if !o.Up {
			continue
		}
		if havePrev && o.Total >= prev {
			out[i] = o.Total - prev
		}
		prev = o.Total
		havePrev = true
	}
	return out
}

// Churn summarises weekly market-structure events across all tracked sites
// (Figure 8's series).
type Churn struct {
	// Week is the collection week index.
	Week int
	// Births counts sites first seen this week.
	Births int
	// Deaths counts sites that stopped responding this week.
	Deaths int
	// Resurrections counts sites responding again after a death.
	Resurrections int
}

// ChurnSeries derives weekly births/deaths/resurrections from site
// histories. A site's first Up week is its birth; an Up→down transition is
// a death; a down→Up transition after a death is a resurrection.
func ChurnSeries(sites []*SiteHistory, weeks int) []Churn {
	out := make([]Churn, weeks)
	for i := range out {
		out[i].Week = i
	}
	for _, h := range sites {
		seen := false
		prevUp := false
		for _, o := range h.Obs {
			if o.Week < 0 || o.Week >= weeks {
				continue
			}
			switch {
			case o.Up && !seen:
				out[o.Week].Births++
				seen = true
				prevUp = true
			case o.Up && seen && !prevUp:
				out[o.Week].Resurrections++
				prevUp = true
			case !o.Up && seen && prevUp:
				out[o.Week].Deaths++
				prevUp = false
			}
		}
	}
	return out
}

// ScreenResult records the data-quality screens for one booter's weekly
// series (§3).
type ScreenResult struct {
	// Name identifies the booter.
	Name string
	// N is the number of usable weekly observations.
	N int
	// White is White's heteroskedasticity test on the weekly totals
	// regressed on time (heteroskedastic real count data is expected).
	White stats.TestResult
	// WhiteOK reports whether the White test could be run.
	WhiteOK bool
	// SK is the skewness/kurtosis normality test.
	SK stats.TestResult
	// SKOK reports whether the sk-test could be run.
	SKOK bool
	// SuspiciousDivisor is the smallest prime < 50 dividing every non-zero
	// weekly value, or 0 when none does (the paper's multiplier screen).
	SuspiciousDivisor int
	// Excluded marks series the screens reject (e.g. all values multiples
	// of 1000).
	Excluded bool
	// Reason explains an exclusion.
	Reason string
}

// primesBelow50 are the candidate fake multipliers the paper checks.
var primesBelow50 = []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}

// Screen applies the paper's §3 data-quality analysis to one site's weekly
// series. minRun is the minimum number of non-zero weeks required to run
// the statistical tests (the paper notes many small/short series are too
// volatile to test meaningfully).
func Screen(h *SiteHistory, minRun int) ScreenResult {
	weekly := h.WeeklyAttacks()
	var vals []float64
	var ts []float64
	for i, v := range weekly {
		if v > 0 {
			vals = append(vals, v)
			ts = append(ts, float64(i))
		}
	}
	res := ScreenResult{Name: h.Name, N: len(vals)}

	// Prime-divisibility screen runs regardless of length: "no sequences of
	// any length had values which were all divisible by any prime less
	// than 50" — except deliberate fakers. Require a minimum run so a
	// single even value doesn't flag.
	if len(vals) >= 4 {
		for _, p := range primesBelow50 {
			all := true
			for _, v := range vals {
				if int64(v)%int64(p) != 0 {
					all = false
					break
				}
			}
			if all {
				res.SuspiciousDivisor = p
				break
			}
		}
	}
	// Values that are all multiples of 1000 indicate the counter the paper
	// excludes.
	if len(vals) >= 4 {
		all1000 := true
		for _, v := range vals {
			if int64(v)%1000 != 0 {
				all1000 = false
				break
			}
		}
		if all1000 {
			res.Excluded = true
			res.Reason = "weekly totals always multiples of 1000"
		}
	}

	if len(vals) >= minRun {
		x := stats.NewDense(len(ts), 1)
		for i, t := range ts {
			x.Set(i, 0, t)
		}
		if w, err := stats.WhiteTest(x, vals); err == nil {
			res.White = w
			res.WhiteOK = true
		}
		if sk, err := stats.SkewKurtTest(vals); err == nil {
			res.SK = sk
			res.SKOK = true
		}
	}
	return res
}

// PlausiblyGenuine reports the paper's acceptance criterion: the series
// looks like real-world count data if it is normally distributed OR
// heteroskedastic (most genuine series are both), and shows no constant
// prime divisor. Series that could not be tested return false.
func (r ScreenResult) PlausiblyGenuine() bool {
	if r.Excluded || r.SuspiciousDivisor > 1 {
		return false
	}
	hetero := r.WhiteOK && r.White.P < 0.05 // rejects homoskedasticity
	normal := r.SKOK && r.SK.P >= 0.05      // fails to reject normality
	return hetero || normal
}
