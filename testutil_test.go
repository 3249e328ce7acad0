package booters

import (
	"sync"
	"testing"

	"booters/internal/protocols"
	"booters/internal/scenario"
	"booters/internal/stats"
	"booters/internal/timeseries"
)

var (
	manifestOnce sync.Once
	manifestVal  *scenario.Manifest
	manifestErr  error
)

// testManifest returns the planted ground truth of the default paper
// world, the panel testPanel returns.
func testManifest(t *testing.T) *scenario.Manifest {
	t.Helper()
	manifestOnce.Do(func() {
		_, manifestVal, manifestErr = scenario.GeneratePaper(DefaultSeed, false)
	})
	if manifestErr != nil {
		t.Fatalf("GeneratePaper: %v", manifestErr)
	}
	return manifestVal
}

// correlation is a test-local alias for the stats implementation.
func correlation(a, b []float64) float64 { return stats.Correlation(a, b) }

// protoByName resolves a protocol display name or fails the test.
func protoByName(t *testing.T, name string) protocols.Protocol {
	t.Helper()
	p, ok := protocols.ByName(name)
	if !ok {
		t.Fatalf("unknown protocol %q", name)
	}
	return p
}

// yearTotal sums a weekly series over one calendar year.
func yearTotal(s *timeseries.Series, year int) float64 {
	var total float64
	for i := 0; i < s.Len(); i++ {
		if s.Week(i).Year() == year {
			total += s.Values[i]
		}
	}
	return total
}
