package ingest

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"time"

	"booters/internal/honeypot"
	"booters/internal/protocols"
)

// unorderedConfig is testConfig with order-tolerant shards.
func unorderedConfig(shards, weeks int) Config {
	cfg := testConfig(shards, weeks)
	cfg.Unordered = true
	return cfg
}

// cutSegments partitions the sorted stream into n contiguous chunks, the
// shape spool segments have.
func cutSegments(rng *rand.Rand, packets []honeypot.Packet, n int) [][]honeypot.Packet {
	bounds := map[int]bool{0: true}
	for len(bounds) < n && len(bounds) < len(packets) {
		bounds[rng.Intn(len(packets))] = true
	}
	var cuts []int
	for b := range bounds {
		cuts = append(cuts, b)
	}
	sort.Ints(cuts)
	var segs [][]honeypot.Packet
	for i, c := range cuts {
		end := len(packets)
		if i+1 < len(cuts) {
			end = cuts[i+1]
		}
		if c < end {
			segs = append(segs, packets[c:end])
		}
	}
	return segs
}

// TestUnorderedSegmentShuffleMatchesBatch is the pipeline-level property
// test of the order-tolerant path: the sorted stream is cut into
// segments, the segments are delivered whole in a random permutation —
// with the single replay source advancing to the minimum first-packet
// time of the undelivered segments, exactly the cross-reader
// low-watermark rule — and the resulting panel, stats and flows must be
// byte-identical to the batch reference, at 1 and 4 shards, across many
// random permutations.
func TestUnorderedSegmentShuffleMatchesBatch(t *testing.T) {
	packets := testStream(t, 4, 120)
	cfg, wantFlows := withFlowLog(testConfig(1, 4))
	want, err := Batch(cfg, packets)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Attacks == 0 || want.Stats.Scans == 0 {
		t.Fatalf("degenerate batch reference: %+v", want.Stats)
	}
	for _, shards := range []int{1, 4} {
		for seed := int64(0); seed < 5; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				segs := cutSegments(rng, packets, 12+rng.Intn(8))
				order := rng.Perm(len(segs))

				cfg, gotFlows := withFlowLog(unorderedConfig(shards, 4))
				in, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				src := in.RegisterSource()
				delivered := make([]bool, len(segs))
				for _, i := range order {
					for _, p := range segs[i] {
						if err := in.Ingest(p); err != nil {
							t.Fatal(err)
						}
					}
					delivered[i] = true
					low := time.Time{}
					for j, d := range delivered {
						if !d && (low.IsZero() || segs[j][0].Time.Before(low)) {
							low = segs[j][0].Time
						}
					}
					if !low.IsZero() {
						src.Advance(low)
					}
				}
				src.Close()
				got, err := in.Close()
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, want, got)
				compareFlows(t, wantFlows, gotFlows)
			})
		}
	}
}

// TestUnorderedStalePacketsSurfacedInStats is the out-of-horizon
// regression test: a packet delivered behind the broadcast low-watermark
// must be rejected by the shard's aggregator, counted in Stats.Late and
// excluded from Stats.Packets — never silently dropped, never booked.
func TestUnorderedStalePacketsSurfacedInStats(t *testing.T) {
	cfg := unorderedConfig(1, 2)
	cfg.BatchSize = 1
	cfg.WatermarkEvery = 1 // broadcast after every packet
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := in.RegisterSource()
	victim := netip.MustParseAddr("10.9.9.9")
	base := testStart.Add(time.Hour)

	// The source promises nothing earlier than base+2·gap is coming, and
	// a packet at that frontier forces the broadcast out.
	src.Advance(base.Add(2 * honeypot.FlowGap))
	mustIngest(t, in, honeypot.Packet{
		Time: base.Add(2 * honeypot.FlowGap), Victim: victim,
		Proto: protocols.DNS, Sensor: 3, Size: 64,
	})
	// Break the promise: the shard queue already carries the watermark,
	// so the worker sees the mark first and must reject this as stale.
	mustIngest(t, in, honeypot.Packet{
		Time: base, Victim: victim,
		Proto: protocols.DNS, Sensor: 3, Size: 64,
	})
	src.Close()
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Late != 1 {
		t.Errorf("Stats.Late = %d, want 1 (out-of-horizon packet surfaced)", res.Stats.Late)
	}
	if res.Stats.Packets != 1 {
		t.Errorf("Stats.Packets = %d, want 1 (stale packet not booked)", res.Stats.Packets)
	}
	if res.Stats.Flows != 1 {
		t.Errorf("Stats.Flows = %d, want 1", res.Stats.Flows)
	}
}

// TestUnorderedWatermarkExpiresIdleShards mirrors the ordered pipeline's
// idle-shard test on the order-tolerant path: with a registered source
// promising the frontier, a quiet victim's flow must close through the
// broadcast low-watermark alone, before Close.
func TestUnorderedWatermarkExpiresIdleShards(t *testing.T) {
	cfg := unorderedConfig(4, 2)
	cfg.BatchSize = 1
	cfg.WatermarkEvery = 1
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := in.RegisterSource()
	defer src.Close()
	idle := netip.MustParseAddr("10.0.0.1")
	busy := netip.MustParseAddr("11.0.0.1")
	// The test is only meaningful if the two victims land on different
	// shards: the idle one's flow must close through the broadcast alone.
	if shardFor(idle, cfg.Shards) == shardFor(busy, cfg.Shards) {
		t.Fatalf("victims %v and %v share shard %d; pick victims on different shards", idle, busy, shardFor(idle, cfg.Shards))
	}
	base := testStart.Add(time.Hour)
	for i := 0; i < honeypot.AttackThreshold+1; i++ {
		tm := base.Add(time.Duration(i) * time.Second)
		src.Advance(tm)
		mustIngest(t, in, honeypot.Packet{Time: tm, Victim: idle, Proto: protocols.LDAP, Sensor: 0, Size: 64})
	}
	for i := 0; i < 10; i++ {
		tm := base.Add(2*honeypot.FlowGap + time.Duration(i)*time.Second)
		src.Advance(tm)
		mustIngest(t, in, honeypot.Packet{Time: tm, Victim: busy, Proto: protocols.DNS, Sensor: 1, Size: 64})
	}
	deadline := time.Now().Add(5 * time.Second)
	for in.FlowsClosed() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("low-watermark did not close the idle shard's flow before Close")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Flows != 2 || res.Stats.Attacks != 2 {
		t.Fatalf("stats: %+v, want 2 attack flows", res.Stats)
	}
}

// TestSourcelessUnorderedNeverExpiresEarly pins the documented fallback:
// with no registered sources an unordered pipeline has no low-watermark,
// so nothing expires mid-run and a fully shuffled stream still matches
// batch at Close.
func TestSourcelessUnorderedNeverExpiresEarly(t *testing.T) {
	packets := testStream(t, 2, 60)
	want, err := Batch(testConfig(1, 2), packets)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]honeypot.Packet(nil), packets...)
	rand.New(rand.NewSource(99)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	got := runStream(t, unorderedConfig(4, 2), shuffled)
	if got.Stats.Late != 0 {
		t.Fatalf("sourceless unordered run rejected %d packets as stale", got.Stats.Late)
	}
	if !statsEqual(got.Stats, want.Stats) {
		t.Errorf("stats: got %+v want %+v", got.Stats, want.Stats)
	}
	compareSeries(t, "global", want.Global, got.Global)
}
