package timeseries

import "time"

// Easter returns the date of (Western) Easter Sunday for the given year,
// computed with the anonymous Gregorian computus. The paper includes a
// separate Easter component in its seasonal model "as school holidays are
// linked to rises in attacks and the date of Easter is not fixed".
func Easter(year int) time.Time {
	a := year % 19
	b := year / 100
	c := year % 100
	d := b / 4
	e := b % 4
	f := (b + 8) / 25
	g := (b - f + 1) / 3
	h := (19*a + b - d - g + 15) % 30
	i := c / 4
	k := c % 4
	l := (32 + 2*e + 2*i - h - k) % 7
	m := (a + 11*h + 22*l) / 451
	month := (h + l - 7*m + 114) / 31
	day := (h+l-7*m+114)%31 + 1
	return time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
}

// EasterWindow reports whether week w overlaps the two-week school-holiday
// window around Easter (the week of Easter Sunday and the week before it).
func EasterWindow(w Week) bool {
	easter := Easter(w.Year())
	easterWeek := WeekOf(easter)
	return w.Equal(easterWeek) || w.Next().Equal(easterWeek)
}

// SeasonalDesign returns the monthly seasonal dummy values for week w:
// eleven indicators for months February..December (January is the reference
// category), matching the paper's seasonal_2 .. seasonal_12 variables.
func SeasonalDesign(w Week) []float64 {
	out := make([]float64, 11)
	m := int(w.Month()) // 1..12
	if m >= 2 {
		out[m-2] = 1
	}
	return out
}

// SeasonalNames returns the column labels for SeasonalDesign, in order.
func SeasonalNames() []string {
	return []string{
		"seasonal_2", "seasonal_3", "seasonal_4", "seasonal_5",
		"seasonal_6", "seasonal_7", "seasonal_8", "seasonal_9",
		"seasonal_10", "seasonal_11", "seasonal_12",
	}
}
