package ingest

import (
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"booters/internal/honeypot"
	"booters/internal/protocols"
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
	for c, s := range prev.ByCountry {
		seriesExtends(t, "country "+c, s, next.ByCountry[c])
	}
	for p, s := range prev.ByProtocol {
		seriesExtends(t, "protocol "+p.String(), s, next.ByProtocol[p])
	}
	for c, cp := range prev.CountryProtocol {
		for p, s := range cp {
			seriesExtends(t, "breakdown "+c+"/"+p.String(), s, next.CountryProtocol[c][p])
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
			if !reflect.DeepEqual(final.Global, want.Global) {
				t.Error("final global series differs from batch")
			}
			if !reflect.DeepEqual(final.ByCountry, want.ByCountry) {
				t.Error("final country series differ from batch")
			}
			if !reflect.DeepEqual(final.ByProtocol, want.ByProtocol) {
				t.Error("final protocol series differ from batch")
			}
			if !reflect.DeepEqual(final.CountryProtocol, want.CountryProtocol) {
				t.Error("final country-protocol breakdown differs from batch")
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
	for _, s := range res.ByCountry {
		s.Values[0] += 1000
	}
	for _, s := range res.ByProtocol {
		s.Values[0] += 1000
	}
	for _, cp := range res.CountryProtocol {
		for _, s := range cp {
			s.Values[0] += 1000
		}
	}
	if !reflect.DeepEqual(final.Panel, want) {
		t.Error("mutating Close's Result changed the Final snapshot")
	}
}
