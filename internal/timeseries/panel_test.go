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
	for _, n := range layout(p) {
		check(n.name, n.s)
	}
}

// fill sets every value of every series in p to v.
func fill(p *Panel, v float64) {
	for _, n := range layout(p) {
		for i := range n.s.Values {
			n.s.Values[i] = v
		}
	}
}

// namedSeries is one series of a panel under a stable name.
type namedSeries struct {
	name string
	s    *Series
}

// layout lists every series of p through its accessors, in the panel's
// layout order: global, each protocol, then each country followed by its
// protocol breakdown.
func layout(p *Panel) []namedSeries {
	out := []namedSeries{{"global", p.Global}}
	for _, proto := range protocols.All() {
		out = append(out, namedSeries{"protocol " + proto.String(), p.Protocol(proto)})
	}
	for _, c := range geo.Countries() {
		out = append(out, namedSeries{"country " + c, p.Country(c)})
		for _, proto := range protocols.All() {
			out = append(out, namedSeries{"breakdown " + c + "/" + proto.String(), p.CountryProtocol(c, proto)})
		}
	}
	return out
}

func TestNewPanelShape(t *testing.T) {
	start := WeekOf(d(2018, time.October, 3))
	p := NewPanel(start, 5)
	if !p.Start.Equal(start) || p.Weeks != 5 {
		t.Fatalf("span: got %v+%d want %v+5", p.Start, p.Weeks, start)
	}
	checkShape(t, p, 0)

	// Every accessor returns its own series, and the series lie on the
	// block in layout order with cap == len.
	series := layout(p)
	if want := 1 + protocols.Count() + len(geo.Countries())*(1+protocols.Count()); len(series) != want {
		t.Fatalf("layout lists %d series, want %d", len(series), want)
	}
	if got, want := len(p.Block()), len(series)*p.Weeks; got != want {
		t.Fatalf("block holds %d values, want %d", got, want)
	}
	seen := make(map[*Series]string, len(series))
	for i, n := range series {
		if other, ok := seen[n.s]; ok {
			t.Fatalf("%s and %s are the same series", n.name, other)
		}
		seen[n.s] = n.name
		if cap(n.s.Values) != len(n.s.Values) {
			t.Fatalf("%s: cap %d, len %d", n.name, cap(n.s.Values), len(n.s.Values))
		}
		if &n.s.Values[0] != &p.Block()[i*p.Weeks] {
			t.Fatalf("%s is not series %d of the block", n.name, i)
		}
	}

	// A key outside the layout has no series.
	if s := p.Country("XX"); s != nil {
		t.Errorf("unknown country: got a series")
	}
	for _, proto := range []protocols.Protocol{-1, protocols.Protocol(protocols.Count())} {
		if p.Protocol(proto) != nil || p.CountryProtocol(geo.US, proto) != nil {
			t.Errorf("unknown protocol %d: got a series", proto)
		}
	}
	if s := p.CountryProtocol("XX", protocols.DNS); s != nil {
		t.Errorf("unknown country with a protocol: got a series")
	}
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
	out := make(map[string]*Series)
	for _, n := range layout(p) {
		out[n.name] = n.s
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

// cloneSink keeps TestPanelCloneAllocs' clones escaping, as a rolling
// pipeline's do, so the panel header is counted too.
var cloneSink *Panel

// TestPanelCloneAllocs pins the clone cost: the panel, its series headers
// and its value block, whatever the span.
func TestPanelCloneAllocs(t *testing.T) {
	p := numbered(WeekOf(d(2017, time.January, 2)), 400)
	if allocs := testing.AllocsPerRun(20, func() { cloneSink = p.Clone() }); allocs > 3 {
		t.Errorf("Clone: %v allocations, want at most 3", allocs)
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
