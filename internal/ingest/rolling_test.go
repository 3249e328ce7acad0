package ingest

import (
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/protocols"
	"booters/internal/scenario"
	"booters/internal/timeseries"
)

// rollingConfig is testConfig with rolling emission on and watermarks
// frequent enough that week boundaries seal mid-run.
func rollingConfig(shards, weeks int) Config {
	cfg := testConfig(shards, weeks)
	cfg.Rolling = true
	return cfg
}

// collectSnapshots subscribes to in and returns an append-only log of
// every snapshot published after the subscription.
func collectSnapshots(t *testing.T, in *Ingestor) func() []*Snapshot {
	t.Helper()
	var mu sync.Mutex
	var log []*Snapshot
	if err := in.OnSnapshot(func(s *Snapshot) {
		mu.Lock()
		log = append(log, s)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	return func() []*Snapshot {
		mu.Lock()
		defer mu.Unlock()
		return append([]*Snapshot(nil), log...)
	}
}

// seriesExtends fails unless next is an elementwise extension of prev
// (same span, no value shrinks).
func seriesExtends(t *testing.T, name string, prev, next *timeseries.Series) {
	t.Helper()
	if !prev.StartWeek.Equal(next.StartWeek) || prev.Len() != next.Len() {
		t.Fatalf("%s: snapshot realigned the panel (%v+%d -> %v+%d)",
			name, prev.StartWeek, prev.Len(), next.StartWeek, next.Len())
	}
	for i, v := range prev.Values {
		if next.Values[i] < v {
			t.Fatalf("%s week %v: shrank from %v to %v", name, prev.Week(i), v, next.Values[i])
		}
	}
}

// snapshotExtends asserts the rolling invariant between two consecutive
// snapshots: sequence and frontier advance, and every series extends.
func snapshotExtends(t *testing.T, prev, next *Snapshot) {
	t.Helper()
	if next.Seq <= prev.Seq {
		t.Fatalf("sequence not increasing: %d after %d", next.Seq, prev.Seq)
	}
	if prev.Sealed && (!next.Sealed || next.Through.Before(prev.Through)) {
		t.Fatalf("sealed frontier went backwards: %v after %v", next.Through, prev.Through)
	}
	seriesExtends(t, "global", prev.Global, next.Global)
	for _, c := range geo.Countries() {
		seriesExtends(t, "country "+c, prev.Country(c), next.Country(c))
	}
	for _, p := range protocols.All() {
		seriesExtends(t, "protocol "+p.String(), prev.Protocol(p), next.Protocol(p))
	}
	for _, c := range geo.Countries() {
		for _, p := range protocols.All() {
			seriesExtends(t, "breakdown "+c+"/"+p.String(), prev.CountryProtocol(c, p), next.CountryProtocol(c, p))
		}
	}
	if next.Stats.Flows < prev.Stats.Flows || next.Stats.Attacks < prev.Stats.Attacks ||
		next.Stats.Scans < prev.Stats.Scans {
		t.Fatalf("counters shrank: %+v after %+v", next.Stats, prev.Stats)
	}
}

// TestRollingSnapshotsMonotoneAndFinalMatchesBatch is the rolling mode's
// core property, at several shard counts: the published snapshot sequence
// is monotone (each snapshot extends the previous), at least one week
// seals mid-run (snapshots are not all deferred to Close), and the Final
// snapshot's panel is identical to the batch reference over the same
// packets.
func TestRollingSnapshotsMonotoneAndFinalMatchesBatch(t *testing.T) {
	const weeks = 5
	packets := testStream(t, weeks, 60)
	want, err := Batch(testConfig(1, weeks), packets)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			in, err := New(rollingConfig(shards, weeks))
			if err != nil {
				t.Fatal(err)
			}
			if !in.Rolling() {
				t.Fatal("Rolling() false on a rolling pipeline")
			}
			if snap := in.Snapshot(); snap == nil || snap.Sealed || snap.Seq != 1 {
				t.Fatalf("initial snapshot: %+v", snap)
			}
			log := collectSnapshots(t, in)
			for _, p := range packets {
				if err := in.Ingest(p); err != nil {
					t.Fatal(err)
				}
			}
			res, err := in.Close()
			if err != nil {
				t.Fatal(err)
			}

			snaps := log()
			if len(snaps) < 2 {
				t.Fatalf("only %d snapshots published; rolling emission never sealed a week", len(snaps))
			}
			sealedMidRun := 0
			for _, s := range snaps {
				if s.Sealed && !s.Final {
					sealedMidRun++
				}
			}
			if sealedMidRun == 0 {
				t.Fatal("no sealed snapshot before Close: weeks only sealed at the final flush")
			}
			prev := snaps[0]
			for _, next := range snaps[1:] {
				snapshotExtends(t, prev, next)
				prev = next
			}

			final := snaps[len(snaps)-1]
			if !final.Final {
				t.Fatal("last published snapshot is not Final")
			}
			if final != in.Snapshot() {
				t.Fatal("Snapshot() does not return the final snapshot after Close")
			}
			if !final.Through.Equal(res.Global.Week(res.Weeks - 1)) {
				t.Errorf("final Through: got %v want %v", final.Through, res.Global.Week(res.Weeks-1))
			}
			// The final snapshot is the batch panel, value for value.
			if !reflect.DeepEqual(final.Panel, want.Panel) {
				t.Error("final panel differs from batch")
			}
			if !statsEqual(final.Stats, want.Stats) {
				t.Errorf("final stats: got %+v want %+v", final.Stats, want.Stats)
			}
		})
	}
}

// TestRollingSealHorizon pins the boundary arithmetic: a watermark one
// gap past a week boundary seals exactly the week before the boundary.
func TestRollingSealHorizon(t *testing.T) {
	gap := honeypot.FlowGap
	monday := time.Date(2018, time.October, 8, 0, 0, 0, 0, time.UTC) // a Monday
	cases := []struct {
		mark time.Time
		want timeseries.Week
	}{
		// Horizon exactly at the boundary: the previous week is whole.
		{monday.Add(gap), timeseries.WeekOf(monday.AddDate(0, 0, -7))},
		// Horizon just inside the new week: same.
		{monday.Add(gap + time.Minute), timeseries.WeekOf(monday.AddDate(0, 0, -7))},
		// Horizon just short of the boundary: one more week back.
		{monday.Add(gap - time.Second), timeseries.WeekOf(monday.AddDate(0, 0, -14))},
	}
	for i, c := range cases {
		if got := sealHorizon(c.mark, gap); !got.Equal(c.want) {
			t.Errorf("case %d: sealHorizon(%v) = %v, want %v", i, c.mark, got, c.want)
		}
	}
}

// TestRollingSealsFirstWeekWithMidWeekStart is the regression test for
// the week-alignment bug: with a panel starting mid-week (as
// booterserve's replay mode does, sizing the span from the spool's first
// packet), the first week must still seal as soon as the horizon leaves
// it — the seal guard compares whole weeks, not the raw start instant.
func TestRollingSealsFirstWeekWithMidWeekStart(t *testing.T) {
	start := time.Date(2018, time.October, 3, 12, 0, 0, 0, time.UTC) // a Wednesday
	cfg := Config{
		Shards:         2,
		Start:          start,
		End:            start.AddDate(0, 0, 20),
		Rolling:        true,
		BatchSize:      16,
		WatermarkEvery: 64,
	}
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := collectSnapshots(t, in)
	victim := netip.MustParseAddr("10.1.1.1")
	// One packet per hour for two weeks: plenty of watermark broadcasts
	// after the horizon leaves week 0.
	for i := 0; i < 14*24; i++ {
		mustIngest(t, in, honeypot.Packet{
			Time:   start.Add(time.Duration(i) * time.Hour),
			Victim: victim,
			Proto:  protocols.DNS,
			Sensor: 0,
			Size:   64,
		})
	}
	if _, err := in.Close(); err != nil {
		t.Fatal(err)
	}
	week0 := timeseries.WeekOf(start)
	for _, s := range log() {
		if s.Sealed && !s.Final && s.Through.Equal(week0) {
			return // week 0 sealed mid-run
		}
	}
	t.Fatal("first (mid-week-start) panel week never sealed before Close")
}

// TestRollingUnordered checks rolling emission under the order-tolerant
// pipeline: the low-watermark comes from a registered source rather than
// packet order, and week seals must still fire mid-run and converge to
// the batch panel.
func TestRollingUnordered(t *testing.T) {
	const weeks = 4
	packets := testStream(t, weeks, 50)
	want, err := Batch(testConfig(1, weeks), packets)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rollingConfig(3, weeks)
	cfg.Unordered = true
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := collectSnapshots(t, in)
	src := in.RegisterSource()
	for _, p := range packets {
		src.Advance(p.Time) // ordered feed: the promise is exact
		if err := in.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Late != 0 {
		t.Fatalf("late packets on an ordered feed: %d", res.Stats.Late)
	}
	snaps := log()
	sealedMidRun := false
	for _, s := range snaps {
		if s.Sealed && !s.Final {
			sealedMidRun = true
		}
	}
	if !sealedMidRun {
		t.Fatal("unordered rolling pipeline sealed no week mid-run")
	}
	final := snaps[len(snaps)-1]
	if !final.Final || !reflect.DeepEqual(final.Global, want.Global) {
		t.Fatal("unordered final snapshot differs from batch")
	}
}

// TestOnSnapshotRequiresRolling pins the error contract.
func TestOnSnapshotRequiresRolling(t *testing.T) {
	in, err := New(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if err := in.OnSnapshot(func(*Snapshot) {}); err != ErrNotRolling {
		t.Fatalf("OnSnapshot on a non-rolling pipeline: got %v want ErrNotRolling", err)
	}
	if in.Snapshot() != nil {
		t.Fatal("Snapshot() non-nil on a non-rolling pipeline")
	}
	if in.Rolling() {
		t.Fatal("Rolling() true on a non-rolling pipeline")
	}
}

// TestOnSnapshotFromCallback: a subscriber may call Snapshot and
// OnSnapshot from inside a publish without deadlocking (publishes hold
// the roller's lock, subscribing takes only the list's), Snapshot already
// returns the snapshot being published, and the subscriber added there
// sees the very next publish.
func TestOnSnapshotFromCallback(t *testing.T) {
	const weeks = 4
	packets := testStream(t, weeks, 40)
	in, err := New(rollingConfig(2, weeks))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var addedAt uint64
	var late []uint64
	var once sync.Once
	if err := in.OnSnapshot(func(s *Snapshot) {
		if cur := in.Snapshot(); cur != s {
			t.Errorf("Snapshot() inside the publish of seq %d returned seq %d", s.Seq, cur.Seq)
		}
		once.Do(func() {
			mu.Lock()
			addedAt = s.Seq
			mu.Unlock()
			if err := in.OnSnapshot(func(s *Snapshot) {
				mu.Lock()
				late = append(late, s.Seq)
				mu.Unlock()
			}); err != nil {
				t.Error(err)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for _, p := range packets {
			if err := in.Ingest(p); err != nil {
				done <- err
				return
			}
		}
		_, err := in.Close()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline stalled: subscribing from inside a publish deadlocked")
	}
	mu.Lock()
	defer mu.Unlock()
	if addedAt == 0 || len(late) == 0 || late[0] != addedAt+1 {
		t.Fatalf("subscriber added during publish %d saw %v, want from %d on", addedAt, late, addedAt+1)
	}
	if final := in.Snapshot(); late[len(late)-1] != final.Seq {
		t.Fatalf("late subscriber's last snapshot %d, want the Final %d", late[len(late)-1], final.Seq)
	}
}

// settledGoroutines returns the goroutine count once two readings 10 ms
// apart agree (goroutines of an earlier test may still be exiting).
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestRollingStartsOnlyShardWorkers: a rolling pipeline runs on its shard
// workers alone, since the worker whose seal advances the frontier
// publishes itself, and Close leaves no goroutine behind.
func TestRollingStartsOnlyShardWorkers(t *testing.T) {
	for _, shards := range []int{1, 4} {
		base := settledGoroutines()
		in, err := New(rollingConfig(shards, 2))
		if err != nil {
			t.Fatal(err)
		}
		started := runtime.NumGoroutine() - base
		if _, err := in.Close(); err != nil {
			t.Fatal(err)
		}
		if started != shards {
			t.Errorf("shards=%d: New started %d goroutines, want %d", shards, started, shards)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("shards=%d: %d goroutines after Close, %d before New", shards, n, base)
		}
	}
}

// TestFinalSnapshotIndependentOfResult checks that Close hands the caller
// a panel the Final snapshot does not share: the result is summed in
// place from shard accumulators, so the snapshot must be a copy.
func TestFinalSnapshotIndependentOfResult(t *testing.T) {
	const weeks = 2
	packets := testStream(t, weeks, 40)
	in, err := New(rollingConfig(2, weeks))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets {
		mustIngest(t, in, p)
	}
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Attacks == 0 {
		t.Fatal("degenerate stream")
	}
	final := in.Snapshot()
	want := final.Clone()
	res.Global.Values[0] += 1000
	for _, c := range geo.Countries() {
		res.Country(c).Values[0] += 1000
		for _, p := range protocols.All() {
			res.CountryProtocol(c, p).Values[0] += 1000
		}
	}
	for _, p := range protocols.All() {
		res.Protocol(p).Values[0] += 1000
	}
	if !reflect.DeepEqual(final.Panel, want) {
		t.Error("mutating Close's Result changed the Final snapshot")
	}
}

// TestRollingSealedDeltasExact pins the seal hand-off to the shards' own
// panels: the collector builds each snapshot by adding up the shards'
// week-range deltas, and once the horizon has passed the span end that sum
// must equal, value for value, the Final panel Close sums from the shard
// accumulators. One trailing scan packet past the span end carries the
// horizon there before Close; its flow books no week.
func TestRollingSealedDeltasExact(t *testing.T) {
	const weeks = 4
	packets := testStream(t, weeks, 50)
	last := timeseries.WeekOf(testConfig(1, weeks).End)
	trailer := honeypot.Packet{
		Time:   last.Next().Start.Add(honeypot.FlowGap),
		Victim: netip.MustParseAddr("10.200.0.1"),
		Proto:  protocols.DNS,
		Size:   64,
	}
	stream := append(packets[:len(packets):len(packets)], trailer)
	for _, unordered := range []bool{false, true} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("unordered=%v/shards=%d", unordered, shards), func(t *testing.T) {
				cfg := rollingConfig(shards, weeks)
				cfg.Unordered = unordered
				in, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				log := collectSnapshots(t, in)
				var src *Source
				if unordered {
					src = in.RegisterSource()
				}
				for _, p := range stream {
					if src != nil {
						src.Advance(p.Time) // ordered feed: the promise is exact
					}
					mustIngest(t, in, p)
				}
				// Deliver the trailer's watermark to every shard now, not
				// at the next WatermarkEvery multiple.
				in.broadcastWatermark()
				if src != nil {
					src.Close()
				}
				if _, err := in.Close(); err != nil {
					t.Fatal(err)
				}
				snaps := log()
				if len(snaps) < 2 {
					t.Fatalf("only %d snapshots published", len(snaps))
				}
				final, sealed := snaps[len(snaps)-1], snaps[len(snaps)-2]
				if !final.Final || sealed.Final || !sealed.Sealed || sealed.Through.Before(last) {
					t.Fatalf("the last week did not seal before Close: snapshot %d sealed=%v through %v, want through %v",
						sealed.Seq, sealed.Sealed, sealed.Through, last)
				}
				if final.Stats.Attacks == 0 {
					t.Fatal("degenerate stream")
				}
				if !reflect.DeepEqual(sealed.Panel, final.Panel) {
					t.Error("summed seal deltas differ from the Final panel")
				}
				// Every flow but the trailer's closed before the seal, so
				// the counter deltas add up to the final counts less one scan.
				want := final.Stats
				want.Flows--
				want.Scans--
				got := sealed.Stats
				if got.Flows != want.Flows || got.Attacks != want.Attacks || got.Scans != want.Scans ||
					got.Unattributed != want.Unattributed || got.OutOfSpan != want.OutOfSpan {
					t.Errorf("sealed flow counters %+v, want %+v", got, want)
				}
			})
		}
	}
}

// TestRollingHandoffEmptyBeforeSpan feeds a rolling pipeline 100k packets
// from the weeks before its span: every attack flow is out of span, so no
// shard may mark a week booked for them — a seal hands over only weeks of
// the panel's own attacks.
func TestRollingHandoffEmptyBeforeSpan(t *testing.T) {
	const n = 100_000
	run, err := scenario.Generate(scenario.Config{
		Seed:            7,
		Start:           testStart.AddDate(0, 0, -28),
		Weeks:           4,
		Sensors:         6,
		BaselineAttacks: 2000,
		Market:          &scenario.MarketDynamics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Packets) < n {
		t.Fatalf("generated %d packets, want at least %d", len(run.Packets), n)
	}
	in, err := New(rollingConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range run.Packets[:n] {
		if !p.Time.Before(testStart) {
			t.Fatalf("packet at %v is not before the span start %v", p.Time, testStart)
		}
		mustIngest(t, in, p)
	}
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Attacks == 0 || res.Stats.OutOfSpan != res.Stats.Attacks {
		t.Fatalf("want every attack out of span, got %+v", res.Stats)
	}
	for _, s := range in.shards {
		if s.acc.lo <= s.acc.hi {
			t.Errorf("shard %d: out-of-span attacks marked weeks %d..%d booked", s.index, s.acc.lo, s.acc.hi)
		}
	}
}

// crossingConfig is a rolling pipeline whose packet-count broadcast
// never fires on a test stream, so only a seal-point crossing (or Close)
// can seal a week.
func crossingConfig(shards, weeks int) Config {
	cfg := rollingConfig(shards, weeks)
	cfg.WatermarkEvery = 1 << 30
	return cfg
}

// weekZeroTraffic ingests 16 packets to distinct victims, six hours apart
// inside the first test week, advancing src (when non-nil) ahead of each.
func weekZeroTraffic(t *testing.T, in *Ingestor, src *Source) {
	t.Helper()
	for i := 0; i < 16; i++ {
		p := honeypot.Packet{
			Time:   testStart.Add(time.Duration(i) * 6 * time.Hour),
			Victim: netip.AddrFrom4([4]byte{10, 9, byte(i), 1}),
			Proto:  protocols.DNS,
			Size:   64,
		}
		if src != nil {
			src.Advance(p.Time)
		}
		mustIngest(t, in, p)
	}
}

// waitSealed polls the latest snapshot until a mid-run (non-Final) one
// has sealed through week w, and fails after a few seconds.
func waitSealed(t *testing.T, in *Ingestor, w timeseries.Week) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := in.Snapshot(); s.Sealed && !s.Final && !s.Through.Before(w) {
			return s
		}
		if time.Now().After(deadline) {
			s := in.Snapshot()
			t.Fatalf("no snapshot sealed through %v before Close (latest: seq %d, sealed %v through %v)",
				w.Start, s.Seq, s.Sealed, s.Through.Start)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRollingSealsAtCrossingOrdered: on a sourceless ordered pipeline,
// the first packet at week 0's seal point (its end plus one quiet gap)
// seals week 0, with no packet-count broadcast due.
func TestRollingSealsAtCrossingOrdered(t *testing.T) {
	in, err := New(crossingConfig(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	weekZeroTraffic(t, in, nil)
	week0 := timeseries.WeekOf(testStart)
	sealAt := week0.Next().Start.Add(honeypot.FlowGap)
	mustIngest(t, in, honeypot.Packet{
		Time: sealAt.Add(-time.Nanosecond), Victim: netip.MustParseAddr("10.9.200.1"), Proto: protocols.DNS, Size: 64,
	})
	if s := in.Snapshot(); s.Sealed {
		t.Fatalf("sealed through %v before the seal point", s.Through.Start)
	}
	mustIngest(t, in, honeypot.Packet{
		Time: sealAt, Victim: netip.MustParseAddr("10.9.200.2"), Proto: protocols.DNS, Size: 64,
	})
	if s := waitSealed(t, in, week0); !s.Through.Equal(week0) {
		t.Fatalf("crossing week 0's seal point sealed through %v, want %v", s.Through.Start, week0.Start)
	}
}

// TestRollingSealsOnSourceAdvance: on an order-tolerant pipeline, a
// source promise past week 0's seal point seals it with no further packet.
func TestRollingSealsOnSourceAdvance(t *testing.T) {
	cfg := crossingConfig(2, 3)
	cfg.Unordered = true
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	src := in.RegisterSource()
	defer src.Close()
	weekZeroTraffic(t, in, src)
	week0 := timeseries.WeekOf(testStart)
	src.Advance(week0.Next().Start.Add(honeypot.FlowGap))
	waitSealed(t, in, week0)
}

// TestRollingSealsOnLaggingSourceClose: with one source past week 0's
// seal point and another holding the low-watermark inside week 0,
// closing the lagging source seals the week.
func TestRollingSealsOnLaggingSourceClose(t *testing.T) {
	cfg := crossingConfig(2, 3)
	cfg.Unordered = true
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ahead, lagging := in.RegisterSource(), in.RegisterSource()
	defer ahead.Close()
	lagging.Advance(testStart)
	weekZeroTraffic(t, in, ahead)
	week0 := timeseries.WeekOf(testStart)
	ahead.Advance(week0.Next().Start.Add(2 * honeypot.FlowGap))
	if s := in.Snapshot(); s.Sealed {
		t.Fatalf("sealed through %v while a source held the watermark in week 0", s.Through.Start)
	}
	lagging.Close()
	waitSealed(t, in, week0)
}

// TestRollingCrossingWithMidWeekStart: with a panel starting mid-week,
// the first seal point is the end of the week holding Start plus one
// gap — not Start plus seven days — and crossing it seals that week.
func TestRollingCrossingWithMidWeekStart(t *testing.T) {
	start := time.Date(2018, time.October, 3, 12, 0, 0, 0, time.UTC) // a Wednesday
	cfg := Config{
		Shards:         2,
		Start:          start,
		End:            start.AddDate(0, 0, 20),
		Rolling:        true,
		BatchSize:      16,
		WatermarkEvery: 1 << 30,
	}
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	week0 := timeseries.WeekOf(start)
	sealAt := week0.Next().Start.Add(honeypot.FlowGap)
	victim := netip.MustParseAddr("10.1.1.1")
	// Hourly packets up to just short of the seal point.
	for at := start; at.Before(sealAt); at = at.Add(time.Hour) {
		mustIngest(t, in, honeypot.Packet{Time: at, Victim: victim, Proto: protocols.DNS, Size: 64})
	}
	if s := in.Snapshot(); s.Sealed {
		t.Fatalf("sealed through %v before the first seal point", s.Through.Start)
	}
	mustIngest(t, in, honeypot.Packet{Time: sealAt, Victim: victim, Proto: protocols.DNS, Size: 64})
	if s := waitSealed(t, in, week0); !s.Through.Equal(week0) {
		t.Fatalf("first crossing sealed through %v, want %v", s.Through.Start, week0.Start)
	}
}
