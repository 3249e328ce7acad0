package spool

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"booters/internal/geo"
	"booters/internal/ingest"
	"booters/internal/protocols"
	"booters/internal/scenario"
)

var testStart = time.Date(2018, time.October, 1, 0, 0, 0, 0, time.UTC)

// testDatagrams generates a market-driven synthetic stream re-encoded as
// wire datagrams, the shape booteringest -record spools.
func testDatagrams(t testing.TB, weeks int, attacksPerWeek float64) []ingest.Datagram {
	t.Helper()
	run, err := scenario.Generate(scenario.Config{
		Seed:            13,
		Start:           testStart,
		Weeks:           weeks,
		Sensors:         6,
		BaselineAttacks: attacksPerWeek,
		Market:          &scenario.MarketDynamics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := run.Packets
	return ingest.Datagrams(packets)
}

// record writes the datagrams to a fresh spool under dir.
func record(t testing.TB, dir string, datagrams []ingest.Datagram, opts Options) {
	t.Helper()
	w, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range datagrams {
		if err := w.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != uint64(len(datagrams)) {
		t.Fatalf("writer count: got %d want %d", w.Count(), len(datagrams))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripAcrossSegments records with a tiny rotation threshold so
// the stream spans many segment files, then checks the replay returns
// every datagram bit-for-bit in order.
func TestRoundTripAcrossSegments(t *testing.T) {
	datagrams := testDatagrams(t, 1, 40)
	dir := filepath.Join(t.TempDir(), "spool")
	record(t, dir, datagrams, Options{SegmentBytes: 4 << 10})

	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("rotation did not engage: %d segment(s) for %d datagrams", len(segs), len(datagrams))
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, want := range datagrams {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if !got.Time.Equal(want.Time) || got.Victim != want.Victim ||
			got.Port != want.Port || got.Sensor != want.Sensor ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("datagram %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last datagram: got %v want io.EOF", err)
	}
	if r.Count() != uint64(len(datagrams)) {
		t.Errorf("reader count: got %d want %d", r.Count(), len(datagrams))
	}
}

// TestReplayPanelEquivalence is the spool's property test: record a
// synthetic market run, replay it from disk through the streaming
// pipeline at two shard counts, and require a panel byte-identical to the
// batch reference computed from the original in-memory packets.
func TestReplayPanelEquivalence(t *testing.T) {
	run, err := scenario.Generate(scenario.Config{
		Seed:            13,
		Start:           testStart,
		Weeks:           3,
		Sensors:         6,
		BaselineAttacks: 90,
		Market:          &scenario.MarketDynamics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := run.Packets
	cfg := func(shards int) ingest.Config {
		return ingest.Config{
			Shards:         shards,
			Start:          testStart,
			End:            testStart.AddDate(0, 0, 7*3-1),
			BatchSize:      32,
			WatermarkEvery: 128,
		}
	}
	want, err := ingest.Batch(cfg(1), packets)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Attacks == 0 {
		t.Fatal("degenerate reference panel")
	}

	dir := filepath.Join(t.TempDir(), "spool")
	record(t, dir, ingest.Datagrams(packets), Options{SegmentBytes: 256 << 10})

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			in, err := ingest.New(cfg(shards))
			if err != nil {
				t.Fatal(err)
			}
			var n uint64
			_, err = ReplayWindow(dir, ReplayOptions{Strict: true}, func(d ingest.Datagram) error {
				n++
				return in.IngestDatagram(d)
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != uint64(len(packets)) {
				t.Fatalf("replayed %d datagrams, recorded %d", n, len(packets))
			}
			got, err := in.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Errorf("stats: got %+v want %+v", got.Stats, want.Stats)
			}
			if !reflect.DeepEqual(got.Global.Values, want.Global.Values) {
				t.Errorf("global series diverged after disk round trip")
			}
			for _, c := range geo.Countries() {
				if !reflect.DeepEqual(got.Country(c).Values, want.Country(c).Values) {
					t.Errorf("country %s series diverged", c)
				}
			}
			for _, p := range protocols.All() {
				if !reflect.DeepEqual(got.Protocol(p).Values, want.Protocol(p).Values) {
					t.Errorf("protocol %v series diverged", p)
				}
			}
		})
	}
}

// TestTruncatedTailDetected cuts the final segment mid-record and checks
// the reader reports ErrCorrupt instead of a silent clean EOF.
func TestTruncatedTailDetected(t *testing.T) {
	datagrams := testDatagrams(t, 1, 20)
	dir := filepath.Join(t.TempDir(), "spool")
	record(t, dir, datagrams, Options{})

	segs, err := segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatal("no segments recorded")
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-11); err != nil {
		t.Fatal(err)
	}

	sawCorrupt := false
	_, err = ReplayWindow(dir, ReplayOptions{Strict: true}, func(ingest.Datagram) error { return nil })
	if errors.Is(err, ErrCorrupt) {
		sawCorrupt = true
	}
	if !sawCorrupt {
		t.Errorf("truncated spool replay: got %v, want ErrCorrupt", err)
	}
}

// TestCreateRefusesNonEmpty checks the clobber guard.
func TestCreateRefusesNonEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")
	record(t, dir, testDatagrams(t, 1, 5), Options{})
	if _, err := Create(dir, Options{}); err == nil {
		t.Error("Create over an existing spool: want error")
	}
}

// TestOpenEmptyDir checks that a spool with no segments is an error, not
// an empty replay.
func TestOpenEmptyDir(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("Open on empty dir: want error")
	}
}

// TestAppendValidation covers the record-field guards and sticky errors.
func TestAppendValidation(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "spool"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	good := ingest.Datagram{
		Time:    testStart,
		Victim:  netip.MustParseAddr("10.0.0.1"),
		Port:    53,
		Sensor:  1,
		Payload: []byte{1, 2, 3},
	}
	if err := w.Append(good); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]ingest.Datagram{
		"no victim":      {Time: testStart, Port: 53},
		"negative port":  {Time: testStart, Victim: good.Victim, Port: -1},
		"huge port":      {Time: testStart, Victim: good.Victim, Port: 1 << 17},
		"bad sensor":     {Time: testStart, Victim: good.Victim, Port: 53, Sensor: -1},
		"oversized data": {Time: testStart, Victim: good.Victim, Port: 53, Payload: make([]byte, 1<<16+1)},
	} {
		if err := w.Append(bad); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	// Field validation must not poison the writer.
	if err := w.Append(good); err != nil {
		t.Errorf("append after rejected datagram: %v", err)
	}
	if w.Count() != 2 {
		t.Errorf("count: got %d want 2", w.Count())
	}
}

// TestIPv6VictimRoundTrip checks the 4-in-6 encoding does not collide with
// a genuine IPv6 victim.
func TestIPv6VictimRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")
	v6 := netip.MustParseAddr("2001:db8::1")
	v4 := netip.MustParseAddr("192.0.2.7")
	record(t, dir, []ingest.Datagram{
		{Time: testStart, Victim: v6, Port: 53},
		{Time: testStart, Victim: v4, Port: 123},
	}, Options{})
	var got []netip.Addr
	if _, err := ReplayWindow(dir, ReplayOptions{Strict: true}, func(d ingest.Datagram) error {
		got = append(got, d.Victim)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != v6 || got[1] != v4 {
		t.Errorf("victims after round trip: got %v want [%v %v]", got, v6, v4)
	}
}
