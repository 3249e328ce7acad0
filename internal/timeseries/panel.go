package timeseries

import (
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
// (country, protocol) pair.
func NewPanel(start Week, weeks int) *Panel {
	p := &Panel{
		Start:           start,
		Weeks:           weeks,
		Global:          NewSeries(start, weeks),
		ByCountry:       make(map[string]*Series),
		ByProtocol:      make(map[protocols.Protocol]*Series, protocols.Count()),
		CountryProtocol: make(map[string]map[protocols.Protocol]*Series),
	}
	for _, c := range geo.Countries() {
		p.ByCountry[c] = NewSeries(start, weeks)
		cp := make(map[protocols.Protocol]*Series, protocols.Count())
		for _, proto := range protocols.All() {
			cp[proto] = NewSeries(start, weeks)
		}
		p.CountryProtocol[c] = cp
	}
	for _, proto := range protocols.All() {
		p.ByProtocol[proto] = NewSeries(start, weeks)
	}
	return p
}

// Clone returns a deep copy of p that shares no storage with it.
func (p *Panel) Clone() *Panel {
	out := &Panel{
		Start:           p.Start,
		Weeks:           p.Weeks,
		Global:          p.Global.Clone(),
		ByCountry:       make(map[string]*Series, len(p.ByCountry)),
		ByProtocol:      make(map[protocols.Protocol]*Series, len(p.ByProtocol)),
		CountryProtocol: make(map[string]map[protocols.Protocol]*Series, len(p.CountryProtocol)),
	}
	for c, s := range p.ByCountry {
		out.ByCountry[c] = s.Clone()
	}
	for proto, s := range p.ByProtocol {
		out.ByProtocol[proto] = s.Clone()
	}
	for c, cp := range p.CountryProtocol {
		m := make(map[protocols.Protocol]*Series, len(cp))
		for proto, s := range cp {
			m[proto] = s.Clone()
		}
		out.CountryProtocol[c] = m
	}
	return out
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
