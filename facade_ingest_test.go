package booters

import (
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"booters/internal/dataset"
	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/protocols"
	"booters/internal/scenario"
	"booters/internal/spool"
)

// TestIngestorFeedsPanel checks the facade bridge: a stream ingested via
// NewIngestor becomes a dataset.Panel aligned with the batch panel's span,
// sliceable over the model window, with the stream's attacks in place.
func TestIngestorFeedsPanel(t *testing.T) {
	streamStart := time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC)
	run, err := scenario.Generate(scenario.Config{
		Seed:            DefaultSeed,
		Start:           streamStart,
		Weeks:           8,
		BaselineAttacks: 60,
		Market:          &scenario.MarketDynamics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := run.Packets
	in, err := NewIngestor(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets {
		if err := in.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Attacks == 0 {
		t.Fatal("stream produced no attacks")
	}

	panel := PanelFromIngest(res)
	want, err := GeneratePanel(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !panel.Start.Equal(want.Start) || panel.Weeks != want.Weeks {
		t.Fatalf("panel span: got %v+%d want %v+%d", panel.Start, panel.Weeks, want.Start, want.Weeks)
	}
	if got := panel.Global.Total(); got != float64(res.Stats.Attacks) {
		t.Errorf("global total: got %v want %d", got, res.Stats.Attacks)
	}
	for _, c := range geo.Table2Countries() {
		if panel.Country(c) == nil {
			t.Errorf("missing country series %s", c)
		}
	}
	for _, p := range protocols.All() {
		if panel.Protocol(p) == nil {
			t.Errorf("missing protocol series %v", p)
		}
	}

	// The country-by-protocol breakdown must arrive populated (the gap
	// this bridge used to leave): full shape, and per-country marginals
	// matching the country series so FitCountryModel-style exhibits can
	// decompose by protocol.
	for _, c := range geo.Countries() {
		var cpTotal, cTotal float64
		for _, p := range protocols.All() {
			s := panel.CountryProtocol(c, p)
			if s == nil {
				t.Fatalf("missing breakdown series %s/%v", c, p)
			}
			cpTotal += s.Total()
		}
		cTotal = panel.Country(c).Total()
		if cpTotal != cTotal {
			t.Errorf("%s breakdown total %v != country total %v", c, cpTotal, cTotal)
		}
	}

	// The model-window slice must cover the stream's weeks: every ingested
	// attack survives the slicing FitGlobalModel applies.
	from, to := ModelWindow()
	s := panel.Global.Slice(from, to)
	if got := s.Total(); got != float64(res.Stats.Attacks) {
		t.Errorf("model-window slice dropped attacks: got %v want %d", got, res.Stats.Attacks)
	}

	// And the bridge must not alias ingest's storage.
	res.Global.Values[0] = 1e9
	if panel.Global.Values[0] == 1e9 {
		t.Error("PanelFromIngest aliases the ingest result's series")
	}
}

// TestSpoolRecordReplayFacade drives the record-once-replay-many workflow
// end to end through the facade: spool a synthetic stream to disk, replay
// it through a fresh ingestor with a top-K sink attached, and check the
// replayed panel matches a direct in-memory run.
func TestSpoolRecordReplayFacade(t *testing.T) {
	run, err := scenario.Generate(scenario.Config{
		Seed:            DefaultSeed,
		Start:           time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC),
		Weeks:           4,
		BaselineAttacks: 50,
		Market:          &scenario.MarketDynamics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := run.Packets

	dir := filepath.Join(t.TempDir(), "capture")
	n, err := RecordSpool(dir, packets)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(packets)) {
		t.Fatalf("recorded %d datagrams, want %d", n, len(packets))
	}

	direct, err := NewIngestor(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets {
		if err := direct.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	want, err := direct.Close()
	if err != nil {
		t.Fatal(err)
	}

	in, err := NewIngestor(3)
	if err != nil {
		t.Fatal(err)
	}
	read, err := ReplaySpool(in, dir)
	if err != nil {
		t.Fatal(err)
	}
	if read != n {
		t.Fatalf("replayed %d datagrams, recorded %d", read, n)
	}
	got, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}

	if got.Stats.Attacks != want.Stats.Attacks || got.Stats.Flows != want.Stats.Flows {
		t.Errorf("replayed stats: got %+v want %+v", got.Stats, want.Stats)
	}
	if gt, wt := got.Global.Total(), want.Global.Total(); gt != wt {
		t.Errorf("replayed global total: got %v want %v", gt, wt)
	}
	ranked := got.TopCountries(3)
	if len(ranked) != 3 {
		t.Fatalf("top countries: got %d rows want 3", len(ranked))
	}
	if ranked[0].Attacks == 0 {
		t.Error("replayed panel ranks no attacks")
	}
	if direct := want.TopCountries(3); !reflect.DeepEqual(ranked, direct) {
		t.Errorf("replayed top countries %v, direct run %v", ranked, direct)
	}
}

// newTolerantIngestor builds an order-tolerant pipeline over the
// paper's panel span from an ingest.Config, the way facade callers do.
func newTolerantIngestor(t *testing.T, shards int) *ingest.Ingestor {
	t.Helper()
	in, err := ingest.New(ingest.Config{
		Shards:    shards,
		Start:     dataset.SpanStart,
		End:       dataset.SpanEnd,
		Unordered: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestUnorderedReplayFacade drives the order-tolerant replay path end to
// end through the facade: record a spool, replay it at 4 workers into an
// order-tolerant ingestor, and check the panel is identical to an
// ordered in-memory run with nothing dropped as late.
func TestUnorderedReplayFacade(t *testing.T) {
	run, err := scenario.Generate(scenario.Config{
		Seed:            DefaultSeed,
		Start:           time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC),
		Weeks:           4,
		BaselineAttacks: 50,
		Market:          &scenario.MarketDynamics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := run.Packets
	dir := filepath.Join(t.TempDir(), "capture")
	n, err := RecordSpoolWith(dir, packets, SpoolRecordOptions{SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}

	direct, err := NewIngestor(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets {
		if err := direct.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	want, err := direct.Close()
	if err != nil {
		t.Fatal(err)
	}

	in := newTolerantIngestor(t, 3)
	rep, err := ReplaySpoolWindow(in, dir, SpoolReplayOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Datagrams != n {
		t.Fatalf("order-tolerant replay delivered %d datagrams, want %d", rep.Datagrams, n)
	}
	got, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Attacks != want.Stats.Attacks || got.Stats.Flows != want.Stats.Flows || got.Stats.Late != 0 {
		t.Errorf("order-tolerant stats: got %+v want %+v", got.Stats, want.Stats)
	}
	if gt, wt := got.Global.Total(), want.Global.Total(); gt != wt {
		t.Errorf("order-tolerant global total: got %v want %v", gt, wt)
	}
}

// TestReplaySpoolWindowExpiresMidReplay pins the low-watermark wiring:
// a replay into a rolling order-tolerant ingestor — parallel through
// ReplaySpoolWindow, strict through ReplaySpool — must expire flows while
// it runs, so the pipeline seals weeks and publishes snapshots before
// Close instead of holding every flow of the capture open until the end.
func TestReplaySpoolWindowExpiresMidReplay(t *testing.T) {
	start := time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC)
	run, err := scenario.Generate(scenario.Config{
		Seed:            DefaultSeed,
		Start:           start,
		Weeks:           6,
		BaselineAttacks: 60,
		Market:          &scenario.MarketDynamics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := run.Packets
	dir := filepath.Join(t.TempDir(), "capture")
	if _, err := RecordSpoolWith(dir, packets, SpoolRecordOptions{SegmentBytes: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	if idx, err := spool.LoadIndex(dir); err != nil || len(idx.Segments) < 3 {
		t.Fatalf("spool index %v (err %v): fewer than 3 segments makes mid-replay expiry coverage vacuous", idx, err)
	}
	replays := map[string]func(in *ingest.Ingestor) error{
		"ReplaySpoolWindow": func(in *ingest.Ingestor) error {
			_, err := ReplaySpoolWindow(in, dir, SpoolReplayOptions{Workers: 2})
			return err
		},
		"ReplaySpool": func(in *ingest.Ingestor) error {
			_, err := ReplaySpool(in, dir)
			return err
		},
	}
	for name, replay := range replays {
		t.Run(name, func(t *testing.T) {
			in, err := ingest.New(ingest.Config{
				Shards:         2,
				Start:          start,
				End:            start.AddDate(0, 0, 7*6-1),
				Rolling:        true,
				Unordered:      true,
				BatchSize:      32,
				WatermarkEvery: 128,
			})
			if err != nil {
				t.Fatal(err)
			}
			var sealed atomic.Int64
			if err := in.OnSnapshot(func(s *ingest.Snapshot) {
				if s.Sealed && !s.Final {
					sealed.Add(1)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if err := replay(in); err != nil {
				t.Fatal(err)
			}
			res, err := in.Close()
			if err != nil {
				t.Fatal(err)
			}
			if sealed.Load() == 0 {
				t.Error("no sealed snapshot published before Close: flows never expired mid-replay")
			}
			if res.Stats.Late != 0 {
				t.Errorf("%d packets dropped as late", res.Stats.Late)
			}
		})
	}
}

// TestSpoolWindowFacade drives the spool v2 additions through the facade:
// record compressed, replay a time window with parallel segment readers,
// and check the windowed panel matches a direct run over the same packet
// subset.
func TestSpoolWindowFacade(t *testing.T) {
	start := time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC)
	run, err := scenario.Generate(scenario.Config{
		Seed:            DefaultSeed,
		Start:           start,
		Weeks:           6,
		BaselineAttacks: 50,
		Market:          &scenario.MarketDynamics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := run.Packets

	dir := filepath.Join(t.TempDir(), "capture")
	n, err := RecordSpoolWith(dir, packets, SpoolRecordOptions{Codec: "lz4", SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(packets)) {
		t.Fatalf("recorded %d datagrams, want %d", n, len(packets))
	}

	from, to := start.AddDate(0, 0, 14), start.AddDate(0, 0, 28)
	var sub []honeypot.Packet
	for _, p := range packets {
		if !p.Time.Before(from) && p.Time.Before(to) {
			sub = append(sub, p)
		}
	}
	direct, err := NewIngestor(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sub {
		if err := direct.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	want, err := direct.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Attacks == 0 {
		t.Fatal("degenerate windowed reference")
	}

	in, err := NewIngestor(3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplaySpoolWindow(in, dir, SpoolReplayOptions{From: from, To: to, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Datagrams != uint64(len(sub)) {
		t.Fatalf("windowed replay delivered %d datagrams, want %d", rep.Datagrams, len(sub))
	}
	if rep.SegmentsSkipped == 0 {
		t.Error("windowed replay skipped no segments")
	}
	if len(rep.DataLoss) > 0 || len(rep.Warnings) > 0 {
		t.Errorf("clean replay reported loss=%v warnings=%v", rep.DataLoss, rep.Warnings)
	}
	got, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Attacks != want.Stats.Attacks || got.Stats.Flows != want.Stats.Flows {
		t.Errorf("windowed stats: got %+v want %+v", got.Stats, want.Stats)
	}
	if gt, wt := got.Global.Total(), want.Global.Total(); gt != wt {
		t.Errorf("windowed global total: got %v want %v", gt, wt)
	}
}
