package honeypot

import (
	"math/rand"
	"testing"
	"time"

	"booters/internal/protocols"
)

// replayStream replays a synthetic mixed workload (attacks, scans, repeat
// victims) into an aggregator with the given gap and returns attack/scan
// counts.
func replayStream(gap time.Duration, seed int64) (attacks, scans int) {
	rng := rand.New(rand.NewSource(seed))
	a := NewAggregatorWithGap(gap)
	now := t0
	// 30 victims; each receives several bursts separated by 5-25 minutes.
	for burst := 0; burst < 120; burst++ {
		now = now.Add(time.Duration(5+rng.Intn(20)) * time.Minute)
		victim := victimA
		if rng.Intn(2) == 0 {
			victim = victimB
		}
		packets := 1 + rng.Intn(30)
		for i := 0; i < packets; i++ {
			_ = a.Offer(Packet{
				Time:   now.Add(time.Duration(i) * time.Second),
				Victim: victim,
				Proto:  protocols.All()[rng.Intn(3)],
				Sensor: rng.Intn(4),
				Size:   64,
			})
		}
	}
	for _, f := range a.Flush() {
		if f.IsAttack() {
			attacks++
		} else {
			scans++
		}
	}
	return attacks, scans
}

func TestGapSensitivity(t *testing.T) {
	// A longer quiet gap merges more bursts into fewer flows; a shorter
	// one splits them. Total classified events must be monotone
	// non-increasing in the gap, so the paper's 15-minute FlowGap is a
	// point on a monotone curve rather than a knife edge.
	gaps := []time.Duration{time.Minute, 5 * time.Minute, FlowGap, time.Hour}
	prev := 1 << 30
	for _, gap := range gaps {
		attacks, scans := replayStream(gap, 7)
		total := attacks + scans
		if total > prev {
			t.Errorf("gap %v: %d flows, more than shorter gap's %d", gap, total, prev)
		}
		if total == 0 {
			t.Errorf("gap %v: no flows at all", gap)
		}
		prev = total
	}
}

func TestGapDefaultMatchesPaper(t *testing.T) {
	// NewAggregator must behave exactly like an explicit 15-minute gap.
	a1, s1 := replayStreamWith(NewAggregator(), 9)
	a2, s2 := replayStreamWith(NewAggregatorWithGap(FlowGap), 9)
	if a1 != a2 || s1 != s2 {
		t.Errorf("default gap differs from explicit 15m: %d/%d vs %d/%d", a1, s1, a2, s2)
	}
}

// replayStreamWith is replayStream against a caller-supplied aggregator.
func replayStreamWith(a *Aggregator, seed int64) (attacks, scans int) {
	rng := rand.New(rand.NewSource(seed))
	now := t0
	for burst := 0; burst < 60; burst++ {
		now = now.Add(time.Duration(5+rng.Intn(20)) * time.Minute)
		packets := 1 + rng.Intn(20)
		for i := 0; i < packets; i++ {
			_ = a.Offer(Packet{
				Time:   now.Add(time.Duration(i) * time.Second),
				Victim: victimA,
				Proto:  protocols.DNS,
				Sensor: rng.Intn(4),
				Size:   64,
			})
		}
	}
	for _, f := range a.Flush() {
		if f.IsAttack() {
			attacks++
		} else {
			scans++
		}
	}
	return attacks, scans
}

func TestNewAggregatorWithGapPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-positive gap")
		}
	}()
	NewAggregatorWithGap(0)
}
