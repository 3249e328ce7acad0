package timeseries

import (
	"reflect"
	"testing"
	"time"

	"booters/internal/geo"
	"booters/internal/protocols"
)

// checkShape fails unless every series of p is present, spans the panel
// and holds only want.
func checkShape(t *testing.T, p *Panel, want float64) {
	t.Helper()
	check := func(name string, s *Series) {
		t.Helper()
		if s == nil {
			t.Fatalf("%s: missing series", name)
		}
		if !s.StartWeek.Equal(p.Start) || s.Len() != p.Weeks {
			t.Fatalf("%s: spans %v+%d, want %v+%d", name, s.StartWeek, s.Len(), p.Start, p.Weeks)
		}
		for i, v := range s.Values {
			if v != want {
				t.Fatalf("%s week %d: got %v want %v", name, i, v, want)
			}
		}
	}
	check("global", p.Global)
	if len(p.ByCountry) != len(geo.Countries()) || len(p.CountryProtocol) != len(geo.Countries()) {
		t.Fatalf("country maps: %d and %d entries, want %d", len(p.ByCountry), len(p.CountryProtocol), len(geo.Countries()))
	}
	if len(p.ByProtocol) != protocols.Count() {
		t.Fatalf("protocol map: %d entries, want %d", len(p.ByProtocol), protocols.Count())
	}
	for _, proto := range protocols.All() {
		check("protocol "+proto.String(), p.ByProtocol[proto])
	}
	for _, c := range geo.Countries() {
		check("country "+c, p.ByCountry[c])
		if len(p.CountryProtocol[c]) != protocols.Count() {
			t.Fatalf("country %s: %d protocols, want %d", c, len(p.CountryProtocol[c]), protocols.Count())
		}
		for _, proto := range protocols.All() {
			check("country "+c+" protocol "+proto.String(), p.CountryProtocol[c][proto])
		}
	}
}

// fill sets every value of every series in p to v.
func fill(p *Panel, v float64) {
	set := func(s *Series) {
		for i := range s.Values {
			s.Values[i] = v
		}
	}
	set(p.Global)
	for _, s := range p.ByCountry {
		set(s)
	}
	for _, s := range p.ByProtocol {
		set(s)
	}
	for _, cp := range p.CountryProtocol {
		for _, s := range cp {
			set(s)
		}
	}
}

func TestNewPanelShape(t *testing.T) {
	start := WeekOf(d(2018, time.October, 3))
	p := NewPanel(start, 5)
	if !p.Start.Equal(start) || p.Weeks != 5 {
		t.Fatalf("span: got %v+%d want %v+5", p.Start, p.Weeks, start)
	}
	checkShape(t, p, 0)
}

func TestPanelCloneIndependent(t *testing.T) {
	p := NewPanel(WeekOf(d(2018, time.October, 1)), 3)
	fill(p, 2)
	c := p.Clone()
	if !reflect.DeepEqual(c, p) {
		t.Fatal("clone differs from the original")
	}
	fill(c, 7)
	checkShape(t, p, 2)
	checkShape(t, c, 7)
}

func TestPanelAdd(t *testing.T) {
	start := WeekOf(d(2018, time.October, 1))
	p, q := NewPanel(start, 4), NewPanel(start, 4)
	fill(p, 1)
	fill(q, 2)
	p.Add(q)
	checkShape(t, p, 3)
	checkShape(t, q, 2)

	defer func() {
		if recover() == nil {
			t.Error("adding a misaligned panel did not panic")
		}
	}()
	p.Add(NewPanel(start, 3))
}
