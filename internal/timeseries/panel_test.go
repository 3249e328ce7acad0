package timeseries

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

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

// named lists every series of p under a stable name.
func named(p *Panel) map[string]*Series {
	out := map[string]*Series{"global": p.Global}
	for c, s := range p.ByCountry {
		out["country "+c] = s
	}
	for proto, s := range p.ByProtocol {
		out["protocol "+proto.String()] = s
	}
	for c, cp := range p.CountryProtocol {
		for proto, s := range cp {
			out["breakdown "+c+"/"+proto.String()] = s
		}
	}
	return out
}

// numbered returns a panel whose every value is distinct, so a write
// landing in the wrong series shows.
func numbered(start Week, weeks int) *Panel {
	p := NewPanel(start, weeks)
	v := 0.0
	for _, s := range named(p) {
		for i := range s.Values {
			v++
			s.Values[i] = v
		}
	}
	return p
}

// overlaps reports whether two float slices share any backing storage.
func overlaps(a, b []float64) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(float64(0))
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*size && b0 < a0+uintptr(cap(a))*size
}

func TestPanelCloneSharesNoStorage(t *testing.T) {
	p := numbered(WeekOf(d(2018, time.October, 1)), 6)
	c := p.Clone()
	if !reflect.DeepEqual(c, p) {
		t.Fatal("clone differs from the original")
	}
	for name, s := range named(c) {
		for srcName, src := range named(p) {
			if s == src || overlaps(s.Values, src.Values) {
				t.Fatalf("clone's %s shares storage with the source's %s", name, srcName)
			}
		}
	}
}

// values copies every series' values of p, keyed as named does.
func values(p *Panel) map[string][]float64 {
	out := make(map[string][]float64)
	for name, s := range named(p) {
		out[name] = append([]float64(nil), s.Values...)
	}
	return out
}

// TestPanelSeriesIsolated checks the one-block layout of both NewPanel
// and Clone: every series has cap == len, and writing to or appending to
// one series changes no neighbour in the block and nothing in the source.
func TestPanelSeriesIsolated(t *testing.T) {
	src := numbered(WeekOf(d(2018, time.October, 1)), 4)
	srcWant := values(src)
	for _, build := range []struct {
		name string
		make func() *Panel
	}{
		{"new", func() *Panel { return numbered(src.Start, src.Weeks) }},
		{"clone", src.Clone},
	} {
		t.Run(build.name, func(t *testing.T) {
			p := build.make()
			want := values(p)
			for name, s := range named(p) {
				if cap(s.Values) != len(s.Values) {
					t.Fatalf("%s: cap %d, len %d", name, cap(s.Values), len(s.Values))
				}
				s.Values[len(s.Values)-1] = -1
				s.Values = append(s.Values, -2)
				s.Values[0] = -3
				want[name] = append([]float64(nil), s.Values...)
				if got := values(p); !reflect.DeepEqual(got, want) {
					t.Fatalf("writing %s changed another series", name)
				}
				if !reflect.DeepEqual(values(src), srcWant) {
					t.Fatalf("writing %s changed the source panel", name)
				}
			}
		})
	}
}

func BenchmarkPanelClone(b *testing.B) {
	for _, weeks := range []int{104, 400} {
		b.Run(fmt.Sprintf("weeks=%d", weeks), func(b *testing.B) {
			p := numbered(WeekOf(d(2017, time.January, 2)), weeks)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c := p.Clone(); c.Weeks != weeks {
					b.Fatal("bad clone")
				}
			}
		})
	}
}
