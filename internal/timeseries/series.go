// Package timeseries provides the weekly count-series type, the weekly
// attack panel built from it, and the calendar utilities the paper's
// analysis runs on: week bucketing, monthly seasonal design columns, the
// movable date of Easter, and the series correlations behind Figure 4.
package timeseries

import (
	"fmt"
	"math"
	"sort"
	"time"

	"booters/internal/stats"
)

// Week identifies a week by its Monday (UTC, truncated to midnight). Weeks
// are the analysis granularity of the paper: "Weekly totals were used as
// daily attack counts showed a high degree of volatility."
type Week struct {
	// Start is the Monday the week begins on, at 00:00 UTC.
	Start time.Time
}

// WeekOf returns the Week containing t.
func WeekOf(t time.Time) Week {
	t = t.UTC()
	day := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
	// time.Weekday: Sunday = 0 ... Saturday = 6. Shift so Monday = 0.
	offset := (int(day.Weekday()) + 6) % 7
	return Week{Start: day.AddDate(0, 0, -offset)}
}

// Next returns the following week.
func (w Week) Next() Week { return Week{Start: w.Start.AddDate(0, 0, 7)} }

// Before reports whether w starts before other.
func (w Week) Before(other Week) bool { return w.Start.Before(other.Start) }

// Equal reports whether two weeks coincide.
func (w Week) Equal(other Week) bool { return w.Start.Equal(other.Start) }

// Contains reports whether t falls inside the week.
func (w Week) Contains(t time.Time) bool {
	t = t.UTC()
	return !t.Before(w.Start) && t.Before(w.Start.AddDate(0, 0, 7))
}

// Midpoint returns the Thursday 12:00 UTC of the week, used to assign a week
// to a calendar month for seasonal dummies.
func (w Week) Midpoint() time.Time { return w.Start.AddDate(0, 0, 3).Add(12 * time.Hour) }

// Month returns the calendar month of the week's midpoint.
func (w Week) Month() time.Month { return w.Midpoint().Month() }

// Year returns the calendar year of the week's midpoint.
func (w Week) Year() int { return w.Midpoint().Year() }

// String formats the week as its Monday date.
func (w Week) String() string { return w.Start.Format("2006-01-02") }

// Series is a contiguous weekly count series.
type Series struct {
	// StartWeek is the first week of the series.
	StartWeek Week
	// Values holds one count per week, starting at StartWeek.
	Values []float64
}

// NewSeries allocates a zero series of n weeks starting at start.
func NewSeries(start Week, n int) *Series {
	return &Series{StartWeek: start, Values: make([]float64, n)}
}

// Len returns the number of weeks.
func (s *Series) Len() int { return len(s.Values) }

// Week returns the week at index i.
func (s *Series) Week(i int) Week {
	return Week{Start: s.StartWeek.Start.AddDate(0, 0, 7*i)}
}

// Index returns the index of week w, or -1 if w lies outside the series.
func (s *Series) Index(w Week) int {
	days := int(w.Start.Sub(s.StartWeek.Start).Hours() / 24)
	if days%7 != 0 {
		return -1
	}
	i := days / 7
	if i < 0 || i >= len(s.Values) {
		return -1
	}
	return i
}

// week is the exact length of a UTC week; weeks never cross a DST shift
// because the series calendar is pinned to UTC.
const week = 7 * 24 * time.Hour

// mondayOffset is the distance from a week boundary of the Unix epoch
// (which fell on a Thursday) to the following Monday midnight.
const mondayOffset = 4 * 24 * time.Hour

// IndexOfTime returns the index of the week containing t, or -1 if outside
// the series. For the canonical Monday-aligned series (everything WeekOf
// and NewSeries produce) the index reduces to one duration division; the
// calendar breakdown WeekOf performs is measurable when this runs once per
// closed flow on the ingest hot path.
func (s *Series) IndexOfTime(t time.Time) int {
	start := s.StartWeek.Start
	if n := start.UnixNano(); n%int64(week) == int64(mondayOffset) {
		d := t.Sub(start)
		if d < 0 {
			return -1
		}
		i := int(d / week)
		if i >= len(s.Values) {
			return -1
		}
		return i
	}
	return s.Index(WeekOf(t))
}

// Add accumulates v into the week containing t; it is a no-op when t falls
// outside the series.
func (s *Series) Add(t time.Time, v float64) {
	if i := s.IndexOfTime(t); i >= 0 {
		s.Values[i] += v
	}
}

// Slice returns the sub-series covering [from, to) by week; both bounds are
// clamped to the series. The returned series shares no storage with s.
func (s *Series) Slice(from, to Week) *Series {
	i := s.clampIndex(from)
	j := s.clampIndex(to)
	if j < i {
		j = i
	}
	out := NewSeries(s.Week(i), j-i)
	copy(out.Values, s.Values[i:j])
	return out
}

func (s *Series) clampIndex(w Week) int {
	days := int(w.Start.Sub(s.StartWeek.Start).Hours() / 24)
	i := days / 7
	if i < 0 {
		return 0
	}
	if i > len(s.Values) {
		return len(s.Values)
	}
	return i
}

// Total returns the sum of all values.
func (s *Series) Total() float64 { return stats.Sum(s.Values) }

// Clone returns a deep copy of s.
func (s *Series) Clone() *Series {
	out := NewSeries(s.StartWeek, s.Len())
	copy(out.Values, s.Values)
	return out
}

// AddSeries element-wise adds other into s. The two series must be aligned
// (same start week and length).
func (s *Series) AddSeries(other *Series) error {
	if !s.StartWeek.Equal(other.StartWeek) || s.Len() != other.Len() {
		return fmt.Errorf("timeseries: AddSeries: misaligned series (%v+%d vs %v+%d)",
			s.StartWeek, s.Len(), other.StartWeek, other.Len())
	}
	for i, v := range other.Values {
		s.Values[i] += v
	}
	return nil
}

// Rescale multiplies every value so the first value becomes base (for
// Figure 5's "scaled so both start at 100" comparison). A zero first value
// leaves the series unchanged.
func (s *Series) Rescale(base float64) {
	if s.Len() == 0 || s.Values[0] == 0 {
		return
	}
	f := base / s.Values[0]
	for i := range s.Values {
		s.Values[i] *= f
	}
}

// WeeksBetween returns the number of whole weeks from a to b (may be
// negative).
func WeeksBetween(a, b Week) int {
	return int(b.Start.Sub(a.Start).Hours() / (24 * 7))
}

// Correlation returns the Pearson correlation between the overlapping spans
// of two series, or NaN when they do not overlap in at least 2 weeks.
func Correlation(a, b *Series) float64 {
	// Align on the later start.
	start := a.StartWeek
	if b.StartWeek.Start.After(start.Start) {
		start = b.StartWeek
	}
	endA := a.Week(a.Len())
	endB := b.Week(b.Len())
	end := endA
	if endB.Before(end) {
		end = endB
	}
	n := WeeksBetween(start, end)
	if n < 2 {
		return math.NaN()
	}
	av := make([]float64, 0, n)
	bv := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		w := Week{Start: start.Start.AddDate(0, 0, 7*i)}
		ai, bi := a.Index(w), b.Index(w)
		if ai < 0 || bi < 0 {
			continue
		}
		av = append(av, a.Values[ai])
		bv = append(bv, b.Values[bi])
	}
	return stats.Correlation(av, bv)
}

// CorrelationMatrix returns the pairwise correlation matrix of the named
// series, with names returned in sorted order for deterministic output
// (Figure 4).
func CorrelationMatrix(series map[string]*Series) (names []string, m *stats.Dense) {
	names = make([]string, 0, len(series))
	for k := range series {
		names = append(names, k)
	}
	sort.Strings(names)
	m = stats.NewDense(len(names), len(names))
	for i, a := range names {
		for j, b := range names {
			if i == j {
				m.Set(i, j, 1)
				continue
			}
			m.Set(i, j, Correlation(series[a], series[b]))
		}
	}
	return names, m
}
