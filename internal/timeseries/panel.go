package timeseries

import (
	"cmp"
	"fmt"
	"slices"

	"booters/internal/geo"
	"booters/internal/protocols"
)

// Panel is the paper's weekly attack panel, the one artefact every model
// reads: a global series plus per-country, per-protocol and
// country-by-protocol breakdowns, all aligned on one span. The generated
// dataset, a loaded CSV, a streaming pipeline's result and its rolling
// snapshots all carry this shape.
//
// Every panel has the same keys, geo.Countries × protocols.All, so the
// series sit in one fixed layout shared by the whole process: global,
// then each protocol, then each country followed by its protocol
// breakdown. A panel is that layout's series headers in one []Series
// block and their values in one []float64 block, series after series,
// Weeks values each; Country, Protocol and CountryProtocol index it.
type Panel struct {
	// Start is the first week of the panel.
	Start Week
	// Weeks is the panel length.
	Weeks int
	// Global is the weekly global attack series (unique attacks; no
	// double-counting).
	Global *Series

	series []Series
	values []float64
}

// countryIndex maps a country code to its position in geo.Countries;
// protocols need no table, as a protocol's value is its position in
// protocols.All. Built once and never written.
var countryIndex = func() map[string]int {
	m := make(map[string]int, len(geo.Countries()))
	for i, c := range geo.Countries() {
		m[c] = i
	}
	return m
}()

// countriesByCode is geo.Countries sorted by code, TopCountries' tie
// order (the layout's country order is not alphabetical).
var countriesByCode = slices.Sorted(slices.Values(geo.Countries()))

// panelSeries is the number of series in the layout.
var panelSeries = countryBase(len(countryIndex))

// countryBase returns the layout position of the i-th country's series;
// its protocol breakdown follows it in protocols.All order.
func countryBase(i int) int { return 1 + protocols.Count() + i*(1+protocols.Count()) }

// known reports whether proto is in protocols.All.
func known(proto protocols.Protocol) bool { return proto >= 0 && int(proto) < protocols.Count() }

// NewPanel returns a zero panel of the given span with a series for every
// country in geo.Countries, every protocol in protocols.All and every
// (country, protocol) pair.
func NewPanel(start Week, weeks int) *Panel {
	return newPanel(start, weeks, make([]float64, panelSeries*weeks))
}

// newPanel lays the layout's series over values. Each Values slice is cut
// with a full slice expression (cap == len), so an append reallocates
// instead of spilling into the neighbouring series.
func newPanel(start Week, weeks int, values []float64) *Panel {
	p := &Panel{Start: start, Weeks: weeks, series: make([]Series, panelSeries), values: values}
	for i := range p.series {
		p.series[i] = Series{StartWeek: start, Values: values[i*weeks : (i+1)*weeks : (i+1)*weeks]}
	}
	p.Global = &p.series[0]
	return p
}

// Clone returns a deep copy of p that shares no storage with it.
func (p *Panel) Clone() *Panel {
	return newPanel(p.Start, p.Weeks, slices.Clone(p.values))
}

// Country returns the weekly series of attacks attributed to victim
// country c, or nil for a code outside geo.Countries. Conservative
// multi-attribution can push the country series' sum above Global
// (Table 3's artifact).
func (p *Panel) Country(c string) *Series {
	i, ok := countryIndex[c]
	if !ok {
		return nil
	}
	return &p.series[countryBase(i)]
}

// Protocol returns the weekly global attack series over protocol proto,
// or nil for a value outside protocols.All.
func (p *Panel) Protocol(proto protocols.Protocol) *Series {
	if !known(proto) {
		return nil
	}
	return &p.series[1+int(proto)]
}

// CountryProtocol returns the weekly series of attacks attributed to
// country c over protocol proto (Figure 6 and the China protocol analysis
// in §4.2), or nil when either key is outside the layout.
func (p *Panel) CountryProtocol(c string, proto protocols.Protocol) *Series {
	i, ok := countryIndex[c]
	if !ok || !known(proto) {
		return nil
	}
	return &p.series[countryBase(i)+1+int(proto)]
}

// Block returns every value of the panel in layout order, series after
// series, Weeks values each. It is the panel's own storage: a write to it
// is a write to the series.
func (p *Panel) Block() []float64 { return p.values }

// Add sums other into p week by week. Both panels must span the same
// weeks; adding a misaligned panel is a programming error and panics.
func (p *Panel) Add(other *Panel) {
	if !p.Start.Equal(other.Start) || p.Weeks != other.Weeks {
		panic(fmt.Sprintf("timeseries: adding a panel over %v+%d to one over %v+%d",
			other.Start, other.Weeks, p.Start, p.Weeks))
	}
	for i, v := range other.values {
		p.values[i] += v
	}
}

// Ranked is one row of a panel ranking: a country code or protocol name
// and the attacks booked to it over the whole panel span.
type Ranked struct {
	Key     string
	Attacks int
}

// TopCountries ranks victim countries by attacks over the panel span —
// the paper's Table 3 cut — descending, with ties broken by code. A
// multi-attributed attack counts for every candidate country, as in
// Country. k <= 0 means 10.
func (p *Panel) TopCountries(k int) []Ranked {
	return top(countriesByCode, k, func(c string) string { return c }, p.Country)
}

// TopProtocols ranks amplification protocols by attacks over the panel
// span, descending, with ties broken in declaration order (see
// protocols.All). k <= 0 means 10.
func (p *Panel) TopProtocols(k int) []Ranked {
	return top(protocols.All(), k, protocols.Protocol.String, p.Protocol)
}

// top ranks keys by their series' totals, descending with ties in the
// order given, and keeps the first k rows (k <= 0 means 10).
func top[K any](keys []K, k int, name func(K) string, series func(K) *Series) []Ranked {
	if k <= 0 {
		k = 10
	}
	rows := make([]Ranked, len(keys))
	for i, key := range keys {
		rows[i] = Ranked{Key: name(key), Attacks: int(series(key).Total())}
	}
	slices.SortStableFunc(rows, func(a, b Ranked) int { return cmp.Compare(b.Attacks, a.Attacks) })
	return rows[:min(k, len(rows))]
}
