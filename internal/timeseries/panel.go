package timeseries

import (
	"cmp"
	"slices"

	"booters/internal/geo"
	"booters/internal/protocols"
)

// Panel is the paper's weekly attack panel, the one artefact every model
// reads: a global series plus per-country, per-protocol and
// country-by-protocol breakdowns, all aligned on one span. The generated
// dataset, a loaded CSV, a streaming pipeline's result and its rolling
// snapshots all carry this shape.
type Panel struct {
	// Start is the first week of the panel.
	Start Week
	// Weeks is the panel length.
	Weeks int
	// Global is the weekly global attack series (unique attacks; no
	// double-counting).
	Global *Series
	// ByCountry maps country code to its weekly attributed attack series.
	// Conservative multi-attribution can push the country series' sum
	// above Global (Table 3's artifact).
	ByCountry map[string]*Series
	// ByProtocol maps protocol to its weekly global attack series.
	ByProtocol map[protocols.Protocol]*Series
	// CountryProtocol maps country code to protocol to the weekly series of
	// attacks attributed to that country over that protocol (Figure 6 and
	// the China protocol analysis in §4.2).
	CountryProtocol map[string]map[protocols.Protocol]*Series
}

// NewPanel returns a zero panel of the given span with a series for every
// country in geo.Countries, every protocol in protocols.All and every
// (country, protocol) pair. All series share one block (see block).
func NewPanel(start Week, weeks int) *Panel {
	countries, protos := geo.Countries(), protocols.All()
	n := 1 + len(protos) + len(countries)*(1+len(protos))
	b := newBlock(n, n*weeks)
	p := &Panel{
		Start:           start,
		Weeks:           weeks,
		Global:          b.next(start, weeks),
		ByCountry:       make(map[string]*Series, len(countries)),
		ByProtocol:      make(map[protocols.Protocol]*Series, len(protos)),
		CountryProtocol: make(map[string]map[protocols.Protocol]*Series, len(countries)),
	}
	for _, c := range countries {
		p.ByCountry[c] = b.next(start, weeks)
		cp := make(map[protocols.Protocol]*Series, len(protos))
		for _, proto := range protos {
			cp[proto] = b.next(start, weeks)
		}
		p.CountryProtocol[c] = cp
	}
	for _, proto := range protos {
		p.ByProtocol[proto] = b.next(start, weeks)
	}
	return p
}

// Clone returns a deep copy of p that shares no storage with it, laid out
// on one block like any NewPanel panel. Like Add, it requires p to come
// from NewPanel: it copies each series into the NewPanel series of the
// same key.
func (p *Panel) Clone() *Panel {
	out := NewPanel(p.Start, p.Weeks)
	copy(out.Global.Values, p.Global.Values)
	for c, s := range p.ByCountry {
		copy(out.ByCountry[c].Values, s.Values)
	}
	for proto, s := range p.ByProtocol {
		copy(out.ByProtocol[proto].Values, s.Values)
	}
	for c, cp := range p.CountryProtocol {
		for proto, s := range cp {
			copy(out.CountryProtocol[c][proto].Values, s.Values)
		}
	}
	return out
}

// block carves a panel's series out of two allocations, one []Series and
// one []float64, instead of two per series. Each Values slice is cut with
// a full slice expression (cap == len), so an append reallocates instead
// of spilling into the neighbouring series.
type block struct {
	series []Series
	values []float64
}

// newBlock allocates room for n series holding values counts in total.
func newBlock(n, values int) *block {
	return &block{series: make([]Series, n), values: make([]float64, values)}
}

// next hands out the block's next series, spanning weeks from start.
func (b *block) next(start Week, weeks int) *Series {
	s := &b.series[0]
	b.series = b.series[1:]
	s.StartWeek = start
	s.Values = b.values[:weeks:weeks]
	b.values = b.values[weeks:]
	return s
}

// Add sums other into p week by week. Both panels must come from NewPanel
// over the same span; adding a misaligned panel is a programming error
// and panics.
func (p *Panel) Add(other *Panel) {
	add := func(dst, src *Series) {
		if err := dst.AddSeries(src); err != nil {
			panic(err)
		}
	}
	add(p.Global, other.Global)
	for c, s := range other.ByCountry {
		add(p.ByCountry[c], s)
	}
	for proto, s := range other.ByProtocol {
		add(p.ByProtocol[proto], s)
	}
	for c, cp := range other.CountryProtocol {
		for proto, s := range cp {
			add(p.CountryProtocol[c][proto], s)
		}
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
// ByCountry. k <= 0 means 10.
func (p *Panel) TopCountries(k int) []Ranked {
	return top(p.ByCountry, k, func(c string) string { return c })
}

// TopProtocols ranks amplification protocols by attacks over the panel
// span, descending, with ties broken in declaration order (see
// protocols.All). k <= 0 means 10.
func (p *Panel) TopProtocols(k int) []Ranked {
	return top(p.ByProtocol, k, protocols.Protocol.String)
}

// top ranks the series by total, descending with ties in key order, and
// keeps the first k rows (k <= 0 means 10).
func top[K cmp.Ordered](series map[K]*Series, k int, name func(K) string) []Ranked {
	if k <= 0 {
		k = 10
	}
	keys := make([]K, 0, len(series))
	for key := range series {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	rows := make([]Ranked, len(keys))
	for i, key := range keys {
		rows[i] = Ranked{Key: name(key), Attacks: int(series[key].Total())}
	}
	slices.SortStableFunc(rows, func(a, b Ranked) int { return cmp.Compare(b.Attacks, a.Attacks) })
	return rows[:min(k, len(rows))]
}
