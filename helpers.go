package booters

import "time"

// mustDate builds a UTC midnight date.
func mustDate(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}
