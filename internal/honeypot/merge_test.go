package honeypot

import (
	"errors"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"time"

	"booters/internal/protocols"
)

// addr4 builds an IPv4 victim address from its four octets.
func addr4(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

// randomStream builds a time-sorted packet stream with enough victims,
// protocols and quiet gaps that flows split, bridge and interleave.
func randomStream(rng *rand.Rand, n int) []Packet {
	victims := []struct{ v byte }{{1}, {2}, {3}, {4}}
	now := time.Duration(0)
	var ps []Packet
	for i := 0; i < n; i++ {
		// Mostly short strides with occasional beyond-gap jumps so some
		// flows close mid-stream.
		if rng.Intn(20) == 0 {
			now += FlowGap + time.Duration(rng.Intn(600))*time.Second
		} else {
			now += time.Duration(rng.Intn(240)) * time.Second
		}
		v := victims[rng.Intn(len(victims))]
		ps = append(ps, Packet{
			Time:   t0.Add(now),
			Victim: addr4(10, 0, 0, v.v),
			Proto:  protocols.All()[rng.Intn(protocols.Count())],
			Sensor: rng.Intn(4),
			Size:   32 + rng.Intn(64),
		})
	}
	return ps
}

// sortFlowsCanonical orders flows deterministically for comparison.
func sortFlowsCanonical(fs []*Flow) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if !a.First.Equal(b.First) {
			return a.First.Before(b.First)
		}
		if a.Key.Victim != b.Key.Victim {
			return a.Key.Victim.Less(b.Key.Victim)
		}
		return a.Key.Proto < b.Key.Proto
	})
}

// sameFlows requires two flow sets to be byte-identical: same intervals,
// totals, per-sensor counts and classifications.
func sameFlows(t *testing.T, got, want []*Flow) {
	t.Helper()
	sortFlowsCanonical(got)
	sortFlowsCanonical(want)
	if len(got) != len(want) {
		t.Fatalf("got %d flows, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key != w.Key || !g.First.Equal(w.First) || !g.Last.Equal(w.Last) ||
			g.TotalPackets != w.TotalPackets || g.TotalBytes != w.TotalBytes ||
			Classify(g) != Classify(w) {
			t.Fatalf("flow %d: got %+v want %+v", i, g, w)
		}
		if len(g.PacketsBySensor) != len(w.PacketsBySensor) {
			t.Fatalf("flow %d: sensor maps differ: got %v want %v", i, g.PacketsBySensor, w.PacketsBySensor)
		}
		for s, n := range w.PacketsBySensor {
			if g.PacketsBySensor[s] != n {
				t.Fatalf("flow %d sensor %d: got %d want %d", i, s, g.PacketsBySensor[s], n)
			}
		}
	}
}

// orderedReference folds the sorted stream through the ordered Aggregator:
// the executable specification the merge aggregator must match.
func orderedReference(t *testing.T, ps []Packet) []*Flow {
	t.Helper()
	a := NewAggregator()
	for _, p := range ps {
		if err := a.Offer(p); err != nil {
			t.Fatal(err)
		}
	}
	return a.Flush()
}

// TestMergeMatchesOrderedOnSortedStream pins the baseline: fed the same
// sorted stream, MergeAggregator and Aggregator produce identical flows.
func TestMergeMatchesOrderedOnSortedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ps := randomStream(rng, 800)
	want := orderedReference(t, ps)
	m := NewMergeAggregator()
	for _, p := range ps {
		if err := m.Offer(p); err != nil {
			t.Fatal(err)
		}
	}
	sameFlows(t, m.Flush(), want)
}

// TestMergeOrderIndependenceProperty is the tentpole property: any
// permutation of the stream (no watermark, so the horizon is unbounded)
// yields flows byte-identical to the ordered fold over the sorted stream.
func TestMergeOrderIndependenceProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps := randomStream(rng, 300+rng.Intn(300))
		want := orderedReference(t, ps)
		shuffled := append([]Packet(nil), ps...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		m := NewMergeAggregator()
		for _, p := range shuffled {
			if err := m.Offer(p); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		sameFlows(t, m.Flush(), want)
	}
}

// TestMergeSegmentDeliveryWithinHorizon models a spool replay whose
// segments are not in time order: the sorted stream is cut into
// contiguous segments, segments are delivered whole in a random order,
// and the watermark advances to the minimum timestamp of the undelivered
// segments after each one — the rule spool.ReplayWindow's OnWatermark
// follows.
// Flows (and mid-run closures) must match the ordered reference, and no
// packet may be rejected as stale.
func TestMergeSegmentDeliveryWithinHorizon(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		ps := randomStream(rng, 400+rng.Intn(200))
		want := orderedReference(t, ps)

		// Cut into 8-16 contiguous segments.
		nseg := 8 + rng.Intn(9)
		bounds := map[int]bool{0: true}
		for len(bounds) < nseg {
			bounds[rng.Intn(len(ps))] = true
		}
		var cuts []int
		for b := range bounds {
			cuts = append(cuts, b)
		}
		sort.Ints(cuts)
		type segment struct {
			ps  []Packet
			min time.Time
		}
		var segs []segment
		for i, c := range cuts {
			end := len(ps)
			if i+1 < len(cuts) {
				end = cuts[i+1]
			}
			if c == end {
				continue
			}
			segs = append(segs, segment{ps: ps[c:end], min: ps[c].Time})
		}

		// Deliver in a random order, bounded to a disorder horizon of
		// `window` in-flight segments, as a pool of `window` readers
		// claiming segments in order would produce.
		window := 4
		delivered := make([]bool, len(segs))
		var next int
		m := NewMergeAggregator()
		var closedEarly []*Flow
		for done := 0; done < len(segs); done++ {
			// Claimable: any undelivered segment among the next `window`.
			var choices []int
			for i := next; i < len(segs) && i < next+window; i++ {
				if !delivered[i] {
					choices = append(choices, i)
				}
			}
			pick := choices[rng.Intn(len(choices))]
			for _, p := range segs[pick].ps {
				if err := m.Offer(p); err != nil {
					t.Fatalf("seed %d: packet rejected within horizon: %v", seed, err)
				}
			}
			delivered[pick] = true
			for next < len(segs) && delivered[next] {
				next++
			}
			// Cross-reader low-watermark: min over undelivered segments.
			if next < len(segs) {
				m.Advance(segs[next].min)
			}
			closedEarly = append(closedEarly, m.Completed()...)
		}
		got := append(closedEarly, m.Flush()...)
		sameFlows(t, got, want)
	}
}

// TestMergeBridgesIntervals checks the adversarial cross-boundary case
// directly: three bursts of one flow delivered as [late, early, middle],
// where the middle burst bridges two open intervals into one flow.
func TestMergeBridgesIntervals(t *testing.T) {
	mk := func(off time.Duration, sensor int) Packet {
		return pkt(off, victimA, protocols.DNS, sensor)
	}
	m := NewMergeAggregator()
	// Burst C at +20m, burst A at 0m: two intervals 20 minutes apart.
	must(t, m.Offer(mk(20*time.Minute, 2)))
	must(t, m.Offer(mk(0, 0)))
	if m.OpenFlows() != 2 {
		t.Fatalf("open intervals = %d, want 2", m.OpenFlows())
	}
	// Burst B at +10m: within one gap of both, so everything coalesces.
	must(t, m.Offer(mk(10*time.Minute, 1)))
	if m.OpenFlows() != 1 {
		t.Fatalf("open intervals after bridge = %d, want 1", m.OpenFlows())
	}
	flows := m.Flush()
	if len(flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(flows))
	}
	f := flows[0]
	if !f.First.Equal(t0) || !f.Last.Equal(t0.Add(20*time.Minute)) || f.TotalPackets != 3 {
		t.Fatalf("bridged flow = %+v", f)
	}
	if len(f.PacketsBySensor) != 3 {
		t.Fatalf("sensor map = %v", f.PacketsBySensor)
	}
}

// TestMergeWatermarkClosesAndRejects checks closure and staleness share
// the watermark: advancing it one gap past an interval completes the
// flow, and a packet behind the watermark is rejected with a StaleError
// that names both timestamps.
func TestMergeWatermarkClosesAndRejects(t *testing.T) {
	m := NewMergeAggregator()
	must(t, m.Offer(pkt(0, victimA, protocols.DNS, 0)))
	must(t, m.Offer(pkt(2*FlowGap, victimB, protocols.DNS, 0)))
	m.Advance(t0.Add(FlowGap))
	closed := m.Completed()
	if len(closed) != 1 || closed[0].Key.Victim != victimA {
		t.Fatalf("watermark closure: %+v", closed)
	}
	if m.OpenFlows() != 1 {
		t.Fatalf("open flows = %d, want 1 (victimB still open)", m.OpenFlows())
	}
	err := m.Offer(pkt(FlowGap-time.Minute, victimA, protocols.DNS, 0))
	var stale *StaleError
	if !errors.As(err, &stale) {
		t.Fatalf("stale packet: got %v, want *StaleError", err)
	}
	if !stale.Watermark.Equal(t0.Add(FlowGap)) {
		t.Errorf("StaleError watermark = %v", stale.Watermark)
	}
	// A lower watermark must not rewind the bar.
	m.Advance(t0)
	if !m.Watermark().Equal(t0.Add(FlowGap)) {
		t.Errorf("watermark rewound to %v", m.Watermark())
	}
}

// TestOrderedAggregatorStaleErrorShared pins the satellite: the ordered
// Aggregator's ancient-packet rejection is the same watermark rule with
// the same error type, with the watermark one quiet gap behind the head.
func TestOrderedAggregatorStaleErrorShared(t *testing.T) {
	a := NewAggregator()
	if !a.Watermark().IsZero() {
		t.Errorf("fresh aggregator watermark = %v, want zero", a.Watermark())
	}
	must(t, a.Offer(pkt(time.Hour, victimA, protocols.DNS, 0)))
	if want := t0.Add(time.Hour - FlowGap); !a.Watermark().Equal(want) {
		t.Errorf("watermark = %v, want %v", a.Watermark(), want)
	}
	err := a.Offer(pkt(0, victimA, protocols.DNS, 0))
	var stale *StaleError
	if !errors.As(err, &stale) {
		t.Fatalf("ancient packet: got %v, want *StaleError", err)
	}
	if !stale.PacketTime.Equal(t0) || !stale.Watermark.Equal(t0.Add(time.Hour-FlowGap)) {
		t.Errorf("StaleError = %+v", stale)
	}
	// Exactly at the watermark is still accepted (half-open horizon).
	must(t, a.Offer(pkt(time.Hour-FlowGap, victimA, protocols.DNS, 0)))
}
