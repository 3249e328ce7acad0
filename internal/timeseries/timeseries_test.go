package timeseries

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func d(y int, m time.Month, day int) time.Time {
	return time.Date(y, m, day, 0, 0, 0, 0, time.UTC)
}

func TestWeekOfIsMonday(t *testing.T) {
	cases := []struct {
		in   time.Time
		want time.Time
	}{
		{d(2018, time.December, 19), d(2018, time.December, 17)}, // Wed -> Mon
		{d(2018, time.December, 17), d(2018, time.December, 17)}, // Mon -> same
		{d(2018, time.December, 23), d(2018, time.December, 17)}, // Sun -> prev Mon
		{d(2016, time.October, 28), d(2016, time.October, 24)},   // Fri
	}
	for _, c := range cases {
		got := WeekOf(c.in)
		if !got.Start.Equal(c.want) {
			t.Errorf("WeekOf(%v) = %v, want %v", c.in, got.Start, c.want)
		}
		if got.Start.Weekday() != time.Monday {
			t.Errorf("WeekOf(%v) starts on %v", c.in, got.Start.Weekday())
		}
	}
}

func TestWeekOfAlwaysMondayProperty(t *testing.T) {
	base := d(2014, time.January, 1)
	f := func(offsetHours uint32) bool {
		tt := base.Add(time.Duration(offsetHours%100000) * time.Hour)
		w := WeekOf(tt)
		return w.Start.Weekday() == time.Monday && w.Contains(tt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeekNavigation(t *testing.T) {
	w := WeekOf(d(2018, time.April, 24))
	if !w.Next().Start.Equal(w.Start.AddDate(0, 0, 7)) {
		t.Error("Next is not +7 days")
	}
	if !w.Before(w.Next()) {
		t.Error("Before(Next) should be true")
	}
	if w.Month() != time.April {
		t.Errorf("Month = %v", w.Month())
	}
	if w.String() != "2018-04-23" {
		t.Errorf("String = %q", w.String())
	}
}

func TestSeriesIndexing(t *testing.T) {
	start := WeekOf(d(2016, time.June, 6))
	s := NewSeries(start, 10)
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Index(start); got != 0 {
		t.Errorf("Index(start) = %d", got)
	}
	if got := s.Index(start.Next()); got != 1 {
		t.Errorf("Index(start+1) = %d", got)
	}
	before := Week{Start: start.Start.AddDate(0, 0, -7)}
	if got := s.Index(before); got != -1 {
		t.Errorf("Index before start = %d", got)
	}
	after := Week{Start: start.Start.AddDate(0, 0, 7*10)}
	if got := s.Index(after); got != -1 {
		t.Errorf("Index past end = %d", got)
	}
	// Add accumulates into the right bucket.
	s.Add(d(2016, time.June, 9), 5) // same week as start
	s.Add(d(2016, time.June, 14), 3)
	if s.Values[0] != 5 || s.Values[1] != 3 {
		t.Errorf("Values = %v", s.Values[:3])
	}
	// Out-of-range Add is a no-op.
	s.Add(d(2020, time.January, 1), 100)
	if s.Total() != 8 {
		t.Errorf("Total = %v, want 8", s.Total())
	}
}

func TestSeriesSlice(t *testing.T) {
	start := WeekOf(d(2016, time.June, 6))
	s := NewSeries(start, 10)
	for i := range s.Values {
		s.Values[i] = float64(i)
	}
	sub := s.Slice(s.Week(2), s.Week(5))
	if sub.Len() != 3 {
		t.Fatalf("sub len = %d", sub.Len())
	}
	if sub.Values[0] != 2 || sub.Values[2] != 4 {
		t.Errorf("sub values = %v", sub.Values)
	}
	// Mutation must not leak back.
	sub.Values[0] = 99
	if s.Values[2] == 99 {
		t.Error("Slice shares storage")
	}
	// Clamped bounds.
	all := s.Slice(Week{Start: start.Start.AddDate(0, 0, -70)}, Week{Start: start.Start.AddDate(0, 0, 700)})
	if all.Len() != 10 {
		t.Errorf("clamped slice len = %d", all.Len())
	}
}

func TestRescale(t *testing.T) {
	s := NewSeries(WeekOf(d(2016, time.June, 6)), 3)
	s.Values = []float64{50, 100, 200}
	s.Rescale(100)
	if s.Values[0] != 100 || s.Values[1] != 200 || s.Values[2] != 400 {
		t.Errorf("rescaled = %v", s.Values)
	}
	z := NewSeries(WeekOf(d(2016, time.June, 6)), 2)
	z.Rescale(100) // zero first value: unchanged
	if z.Values[0] != 0 {
		t.Error("Rescale of zero-led series should be a no-op")
	}
}

func TestAddSeriesAlignment(t *testing.T) {
	a := NewSeries(WeekOf(d(2016, time.June, 6)), 3)
	b := NewSeries(WeekOf(d(2016, time.June, 6)), 3)
	b.Values = []float64{1, 2, 3}
	if err := a.AddSeries(b); err != nil {
		t.Fatal(err)
	}
	if a.Values[2] != 3 {
		t.Errorf("a = %v", a.Values)
	}
	c := NewSeries(WeekOf(d(2016, time.June, 13)), 3)
	if err := a.AddSeries(c); err == nil {
		t.Error("AddSeries accepted misaligned series")
	}
}

func TestSeriesCorrelation(t *testing.T) {
	start := WeekOf(d(2016, time.June, 6))
	a := NewSeries(start, 20)
	b := NewSeries(start, 20)
	for i := 0; i < 20; i++ {
		a.Values[i] = float64(i)
		b.Values[i] = 2 * float64(i)
	}
	if r := Correlation(a, b); math.Abs(r-1) > 1e-12 {
		t.Errorf("corr = %v, want 1", r)
	}
	// Offset series correlate over the overlap.
	c := NewSeries(start.Next(), 20)
	for i := 0; i < 20; i++ {
		c.Values[i] = float64(i)
	}
	if r := Correlation(a, c); math.Abs(r-1) > 1e-12 {
		t.Errorf("offset corr = %v, want 1 over overlap", r)
	}
	// Disjoint series: NaN.
	far := NewSeries(Week{Start: start.Start.AddDate(2, 0, 0)}, 5)
	if r := Correlation(a, far); !math.IsNaN(r) {
		t.Errorf("disjoint corr = %v, want NaN", r)
	}
}

func TestEasterDates(t *testing.T) {
	// Known Easter Sundays.
	cases := map[int]time.Time{
		2014: d(2014, time.April, 20),
		2015: d(2015, time.April, 5),
		2016: d(2016, time.March, 27),
		2017: d(2017, time.April, 16),
		2018: d(2018, time.April, 1),
		2019: d(2019, time.April, 21),
		2020: d(2020, time.April, 12),
	}
	for y, want := range cases {
		if got := Easter(y); !got.Equal(want) {
			t.Errorf("Easter(%d) = %v, want %v", y, got, want)
		}
	}
}

func TestEasterAlwaysSundayInWindow(t *testing.T) {
	for y := 1900; y <= 2100; y++ {
		e := Easter(y)
		if e.Weekday() != time.Sunday {
			t.Errorf("Easter(%d) = %v is a %v", y, e, e.Weekday())
		}
		if e.Month() != time.March && e.Month() != time.April {
			t.Errorf("Easter(%d) in %v", y, e.Month())
		}
	}
}

func TestEasterWindow(t *testing.T) {
	easter2018 := WeekOf(d(2018, time.April, 1))
	if !EasterWindow(easter2018) {
		t.Error("Easter week should be in window")
	}
	prev := Week{Start: easter2018.Start.AddDate(0, 0, -7)}
	if !EasterWindow(prev) {
		t.Error("week before Easter should be in window")
	}
	midsummer := WeekOf(d(2018, time.July, 16))
	if EasterWindow(midsummer) {
		t.Error("July should not be in Easter window")
	}
}

func TestSeasonalDesign(t *testing.T) {
	names := SeasonalNames()
	if len(names) != 11 {
		t.Fatalf("got %d seasonal names", len(names))
	}
	// January week: all dummies zero (reference category).
	jan := WeekOf(d(2018, time.January, 10))
	for i, v := range SeasonalDesign(jan) {
		if v != 0 {
			t.Errorf("january dummy %d = %v", i, v)
		}
	}
	// December week: last dummy set.
	dec := WeekOf(d(2018, time.December, 12))
	dd := SeasonalDesign(dec)
	if dd[10] != 1 {
		t.Errorf("december dummy = %v", dd)
	}
	var sum float64
	for _, v := range dd {
		sum += v
	}
	if sum != 1 {
		t.Errorf("exactly one dummy should be set, got %v", dd)
	}
}

func TestSeasonalDesignOneHotProperty(t *testing.T) {
	base := d(2014, time.July, 7)
	f := func(weeks uint16) bool {
		w := WeekOf(base.AddDate(0, 0, int(weeks%280)*7))
		dd := SeasonalDesign(w)
		var sum float64
		for _, v := range dd {
			if v != 0 && v != 1 {
				return false
			}
			sum += v
		}
		if w.Month() == time.January {
			return sum == 0
		}
		return sum == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCorrelationMatrixDeterministicOrder(t *testing.T) {
	start := WeekOf(d(2016, time.June, 6))
	mk := func(vals ...float64) *Series {
		s := NewSeries(start, len(vals))
		copy(s.Values, vals)
		return s
	}
	names, m := CorrelationMatrix(map[string]*Series{
		"US": mk(1, 2, 3, 4),
		"UK": mk(2, 4, 6, 8),
		"CN": mk(4, 3, 2, 1),
	})
	if names[0] != "CN" || names[1] != "UK" || names[2] != "US" {
		t.Errorf("names = %v, want sorted", names)
	}
	if v := m.At(1, 2); math.Abs(v-1) > 1e-12 {
		t.Errorf("UK-US corr = %v", v)
	}
	if v := m.At(0, 2); math.Abs(v+1) > 1e-12 {
		t.Errorf("CN-US corr = %v", v)
	}
}

func TestWeeksBetween(t *testing.T) {
	a := WeekOf(d(2016, time.June, 6))
	b := WeekOf(d(2016, time.July, 4))
	if got := WeeksBetween(a, b); got != 4 {
		t.Errorf("WeeksBetween = %d, want 4", got)
	}
	if got := WeeksBetween(b, a); got != -4 {
		t.Errorf("reverse WeeksBetween = %d, want -4", got)
	}
}
