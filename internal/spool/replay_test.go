package spool

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"booters/internal/geo"
	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/protocols"
	"booters/internal/scenario"
)

// testCodecs enumerates the codec matrix every replay property is pinned
// on.
func testCodecs(t *testing.T) []Codec {
	t.Helper()
	var cs []Codec
	for _, name := range Codecs() {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	return cs
}

// collectReplay runs ReplayWindow and gathers the delivered datagrams,
// copying each borrowed payload since the collection outlives the call.
// It also checks the OnWatermark trail on every replay, passing each mark
// on to opts.OnWatermark when the caller set one: marks must be strictly
// increasing, and no record may be delivered behind the last mark.
func collectReplay(t *testing.T, dir string, opts ReplayOptions) ([]ingest.Datagram, *ReplayStats) {
	t.Helper()
	var got []ingest.Datagram
	var mark time.Time // zero until the first report
	onMark := opts.OnWatermark
	opts.OnWatermark = func(w time.Time) {
		if !mark.IsZero() && !w.After(mark) {
			t.Errorf("watermark trail not strictly increasing: %v then %v", mark, w)
		}
		mark = w
		if onMark != nil {
			onMark(w)
		}
	}
	stats, err := ReplayWindow(dir, opts, func(d ingest.Datagram) error {
		if d.Time.Before(mark) {
			t.Errorf("datagram at %v delivered behind the watermark %v", d.Time, mark)
		}
		d.Payload = append([]byte(nil), d.Payload...)
		got = append(got, d)
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayWindow(%+v): %v", opts, err)
	}
	if stats.Records != uint64(len(got)) {
		t.Fatalf("stats.Records = %d, delivered %d", stats.Records, len(got))
	}
	return got, stats
}

// sameDatagrams requires two datagram sequences to match bit for bit, in
// order.
func sameDatagrams(t *testing.T, got, want []ingest.Datagram) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d datagrams, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Time.Equal(w.Time) || g.Victim != w.Victim || g.Port != w.Port ||
			g.Sensor != w.Sensor || !bytes.Equal(g.Payload, w.Payload) {
			t.Fatalf("datagram %d: got %+v want %+v", i, g, w)
		}
	}
}

// TestWindowedReplaySkipsSegments records a multi-week stream across
// many small segments and checks that a [from,to) replay prunes whole
// segments via the index, filters boundary records, and still delivers
// exactly the window's datagrams in order, with a watermark trail that
// advances as segments complete — for every codec and for 1 and 4
// readers.
func TestWindowedReplaySkipsSegments(t *testing.T) {
	datagrams := testDatagrams(t, 4, 60)
	from := testStart.AddDate(0, 0, 10)
	to := testStart.AddDate(0, 0, 18)
	var want []ingest.Datagram
	for _, d := range datagrams {
		if !d.Time.Before(from) && d.Time.Before(to) {
			want = append(want, d)
		}
	}
	if len(want) == 0 || len(want) == len(datagrams) {
		t.Fatalf("degenerate window: %d of %d datagrams", len(want), len(datagrams))
	}
	for _, codec := range testCodecs(t) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("codec=%s/workers=%d", codec.Name(), workers), func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "spool")
				record(t, dir, datagrams, Options{SegmentBytes: 16 << 10, BlockBytes: 4 << 10, Codec: codec})
				var marks int
				got, stats := collectReplay(t, dir, ReplayOptions{From: from, To: to, Workers: workers,
					OnWatermark: func(time.Time) { marks++ }})
				sameDatagrams(t, got, want)
				if stats.SegmentsSkipped == 0 {
					t.Error("no segments skipped: index pruning did not engage")
				}
				if marks == 0 && stats.SegmentsRead > 1 {
					t.Errorf("%d segments delivered without a watermark report", stats.SegmentsRead)
				}
				if stats.Filtered == 0 {
					t.Error("no boundary records filtered")
				}
				if stats.DataLost() || len(stats.Warnings) > 0 {
					t.Errorf("clean spool reported torn=%v warnings=%v", stats.Torn, stats.Warnings)
				}
			})
		}
	}
}

// TestParallelReplayPanelEquivalence is the acceptance property test:
// replaying a recorded market stream through the sharded pipeline with 1
// and 4 readers, compressed and raw, must produce weekly panels
// byte-identical to the batch reference over the original packets — and
// a windowed replay must match the batch reference over the manually
// filtered packet subset. It runs on both pipelines: the ordered one,
// and the order-tolerant one with OnWatermark driving a registered
// low-watermark source, wired exactly as production does it.
func TestParallelReplayPanelEquivalence(t *testing.T) {
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
	cfg := func(shards int, unordered bool) ingest.Config {
		return ingest.Config{
			Shards:         shards,
			Start:          testStart,
			End:            testStart.AddDate(0, 0, 7*3-1),
			BatchSize:      32,
			WatermarkEvery: 128,
			Unordered:      unordered,
		}
	}
	from := testStart.AddDate(0, 0, 7)
	to := testStart.AddDate(0, 0, 14)
	windows := []struct {
		name     string
		from, to time.Time
	}{
		{"full", time.Time{}, time.Time{}},
		{"week2", from, to},
	}
	for _, win := range windows {
		sub := packets
		if !win.from.IsZero() {
			sub = nil
			for _, p := range packets {
				if !p.Time.Before(win.from) && p.Time.Before(win.to) {
					sub = append(sub, p)
				}
			}
		}
		want, err := ingest.Batch(cfg(1, false), sub)
		if err != nil {
			t.Fatal(err)
		}
		if want.Stats.Attacks == 0 {
			t.Fatal("degenerate reference panel")
		}
		for _, codec := range testCodecs(t) {
			dir := filepath.Join(t.TempDir(), "spool")
			record(t, dir, ingest.Datagrams(packets), Options{SegmentBytes: 64 << 10, Codec: codec})
			for _, workers := range []int{1, 4} {
				for _, unordered := range []bool{false, true} {
					name := fmt.Sprintf("%s/codec=%s/workers=%d", win.name, codec.Name(), workers)
					if unordered {
						name += "/order-tolerant"
					}
					t.Run(name, func(t *testing.T) {
						in, err := ingest.New(cfg(4, unordered))
						if err != nil {
							t.Fatal(err)
						}
						opts := ReplayOptions{From: win.from, To: win.to, Workers: workers}
						var src *ingest.Source
						if unordered {
							src = in.RegisterSource()
							opts.OnWatermark = src.Advance
						}
						stats, err := ReplayWindow(dir, opts, func(d ingest.Datagram) error {
							return in.IngestDatagram(d)
						})
						if err != nil {
							t.Fatal(err)
						}
						if stats.Records != uint64(len(sub)) {
							t.Fatalf("replayed %d datagrams, want %d", stats.Records, len(sub))
						}
						if src != nil {
							src.Close()
						}
						got, err := in.Close()
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Stats, want.Stats) {
							t.Errorf("stats: got %+v want %+v", got.Stats, want.Stats)
						}
						if !reflect.DeepEqual(got.Global.Values, want.Global.Values) {
							t.Errorf("global series diverged from batch reference")
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
		}
	}
}

// TestParallelReplayPreservesOrder pins the delivery-order contract:
// with many small segments and more workers than cores, the delivered
// sequence must still equal the recorded sequence exactly.
func TestParallelReplayPreservesOrder(t *testing.T) {
	datagrams := testDatagrams(t, 2, 80)
	dir := filepath.Join(t.TempDir(), "spool")
	record(t, dir, datagrams, Options{SegmentBytes: 8 << 10, BlockBytes: 4 << 10, Codec: newLZ4Codec()})
	got, stats := collectReplay(t, dir, ReplayOptions{Workers: 8})
	sameDatagrams(t, got, datagrams)
	if stats.SegmentsRead < 3 {
		t.Fatalf("only %d segments: parallel order coverage is vacuous", stats.SegmentsRead)
	}
}

// TestReplayFnErrorStopsParallel checks a consumer error aborts a
// parallel replay promptly and is returned verbatim.
func TestReplayFnErrorStopsParallel(t *testing.T) {
	datagrams := testDatagrams(t, 2, 80)
	dir := filepath.Join(t.TempDir(), "spool")
	record(t, dir, datagrams, Options{SegmentBytes: 8 << 10, Codec: newLZ4Codec()})
	errBoom := errors.New("boom")
	var n int
	_, err := ReplayWindow(dir, ReplayOptions{Workers: 4}, func(ingest.Datagram) error {
		n++
		if n == 100 {
			return errBoom
		}
		return nil
	})
	if err != errBoom {
		t.Fatalf("got %v, want the consumer's error", err)
	}
}

// TestAbortedParallelReplayLeaksNothing pins the abort path: repeated
// replays killed by a consumer error, over a spool with far more
// segments than can be in flight, must leave no worker or drain
// goroutines behind (and therefore no pinned record batches).
func TestAbortedParallelReplayLeaksNothing(t *testing.T) {
	datagrams := testDatagrams(t, 2, 80)
	dir := filepath.Join(t.TempDir(), "spool")
	record(t, dir, datagrams, Options{SegmentBytes: 4 << 10, BlockBytes: 4 << 10})
	idx, err := LoadIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Segments) < 10 {
		t.Fatalf("want >= 10 segments for leak coverage, got %d", len(idx.Segments))
	}
	errBoom := errors.New("boom")
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		_, err := ReplayWindow(dir, ReplayOptions{Workers: 2}, func(ingest.Datagram) error { return errBoom })
		if err != errBoom {
			t.Fatalf("replay %d: got %v, want the consumer's error", i, err)
		}
	}
	// Workers are waited on before ReplayWindow returns, so any excess
	// here is a leak, not a straggler — but give the runtime a moment
	// to retire exiting goroutines before judging.
	for deadline := time.Now().Add(2 * time.Second); ; {
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after 20 aborted replays", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLowMarks pins the suffix minimum behind OnWatermark on a
// reordered scan list: after each segment the mark is the smallest
// trailer Min still to come, an unindexed segment holds every mark before
// it back (MinInt64, never reported), empty segments constrain nothing,
// and nothing is left to come after the last segment (MaxInt64).
func TestLowMarks(t *testing.T) {
	at := func(s int64) time.Time { return time.Unix(s, 0) }
	scan := []*SegmentInfo{
		{Indexed: true, Records: 5, Min: at(10)},
		{Indexed: true, Records: 5, Min: at(40)},
		{Indexed: false},
		{Indexed: true, Records: 5, Min: at(30)},
		{Indexed: true, Records: 0},
		{Indexed: true, Records: 5, Min: at(20)},
	}
	want := []int64{math.MinInt64, math.MinInt64, 20e9, 20e9, 20e9, math.MaxInt64}
	if got := lowMarks(scan); !reflect.DeepEqual(got, want) {
		t.Errorf("lowMarks = %v, want %v", got, want)
	}
}

// TestConcurrentScrapeDuringReplay races Prometheus scrapes against a
// live 4-worker replay of a torn spool: the delivering goroutine books
// deliveries and each segment — the torn one included — as soon as its
// records are delivered, so a scraper must see a monotone records
// counter and, eventually, the torn segment, without a data race (run
// under -race) and with final counts equal to the end-of-run ReplayStats.
func TestConcurrentScrapeDuringReplay(t *testing.T) {
	datagrams := testDatagrams(t, 2, 80)
	dir := filepath.Join(t.TempDir(), "spool")
	record(t, dir, datagrams, Options{SegmentBytes: 8 << 10, Codec: newLZ4Codec()})
	tornLastSegment(t, dir, 11)

	reg := obs.NewRegistry()
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		var buf []byte
		var last float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf = reg.AppendText(buf[:0])
			if v, ok := reg.Sum("booters_spool_replay_records_total"); ok {
				if v < last {
					t.Errorf("replay records counter went backwards: %v after %v", v, last)
					return
				}
				last = v
			}
		}
	}()
	var n uint64
	stats, err := ReplayWindow(dir, ReplayOptions{Workers: 4, Metrics: reg}, func(ingest.Datagram) error {
		n++
		return nil
	})
	close(stop)
	<-scraperDone
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := reg.Sum("booters_spool_replay_records_total"); got != float64(stats.Records) {
		t.Errorf("scraped records: got %v want %d", got, stats.Records)
	}
	if n != stats.Records {
		t.Errorf("delivered %d, stats.Records %d", n, stats.Records)
	}
	if got, _ := reg.Sum("booters_spool_replay_torn_total"); got != float64(len(stats.Torn)) || got != 1 {
		t.Errorf("scraped torn: got %v want %d (1)", got, len(stats.Torn))
	}
	read, _ := reg.Sum("booters_spool_replay_segments_total")
	if want := float64(stats.SegmentsRead + stats.SegmentsSkipped); read != want {
		t.Errorf("scraped segments (read+skipped): got %v want %v", read, want)
	}
}

// tornLastSegment truncates the highest-numbered segment by n bytes.
func tornLastSegment(t *testing.T, dir string, n int64) string {
	t.Helper()
	segs, err := segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatal("no segments recorded")
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-n); err != nil {
		t.Fatal(err)
	}
	return filepath.Base(last)
}

// TestTornTailSurfacedNotSilent is the data-loss satellite: a torn final
// record (or trailer) must be delivered up to the last complete block,
// reported in ReplayStats.Torn, and must not fail the tolerant replay —
// while strict mode still errors with ErrCorrupt.
func TestTornTailSurfacedNotSilent(t *testing.T) {
	datagrams := testDatagrams(t, 1, 30)
	for _, cut := range []struct {
		name    string
		bytes   int64
		allKept bool // records survive, only the trailer's attestation is lost
	}{
		{"into trailer", 11, true},
		{"into last block", int64(trailerSize + 200), false},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "spool")
			record(t, dir, datagrams, Options{SegmentBytes: 16 << 10, BlockBytes: 4 << 10})
			torn := tornLastSegment(t, dir, cut.bytes)

			got, stats := collectReplay(t, dir, ReplayOptions{})
			if !stats.DataLost() || len(stats.Torn) != 1 {
				t.Fatalf("torn tail not surfaced: %+v", stats)
			}
			if stats.Torn[0].Segment != torn {
				t.Errorf("torn segment %q, want %q", stats.Torn[0].Segment, torn)
			}
			if cut.allKept {
				if len(got) != len(datagrams) {
					t.Errorf("delivered %d of %d datagrams; a torn trailer loses no records", len(got), len(datagrams))
				}
			} else if len(got) >= len(datagrams) {
				t.Errorf("delivered %d of %d datagrams despite truncation", len(got), len(datagrams))
			}
			// Everything that was delivered must be an exact prefix.
			sameDatagrams(t, got, datagrams[:len(got)])

			// The torn segment has no trusted trailer Min, so it holds
			// the watermark back until it has been delivered; as the
			// last segment it holds it back for the whole replay.
			for _, workers := range []int{1, 4} {
				var marks []time.Time
				_, stats := collectReplay(t, dir, ReplayOptions{Workers: workers,
					OnWatermark: func(w time.Time) { marks = append(marks, w) }})
				if stats.SegmentsRead < 2 {
					t.Fatalf("only %d segments: the hold-back is vacuous", stats.SegmentsRead)
				}
				if len(marks) > 0 {
					t.Errorf("workers=%d: watermark %v reported ahead of the torn segment", workers, marks)
				}
			}

			// Strict mode still fails.
			if _, err := ReplayWindow(dir, ReplayOptions{Strict: true}, func(ingest.Datagram) error { return nil }); !errors.Is(err, ErrCorrupt) {
				t.Errorf("strict replay: got %v, want ErrCorrupt", err)
			}
		})
	}

	// Retired formats are corruption too: a segment behind the v1 magic
	// "BOOTSPL1", and a v2 header naming the retired codec ID 2.
	for _, retired := range []struct {
		name string
		at   int
		with []byte
	}{
		{"v1 magic", 0, []byte("BOOTSPL1")},
		{"codec ID 2", 8, []byte{2}},
	} {
		t.Run(retired.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "spool")
			record(t, dir, datagrams, Options{SegmentBytes: 16 << 10, BlockBytes: 4 << 10})
			segs, _ := segments(dir)
			data, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			copy(data[retired.at:], retired.with)
			if err := os.WriteFile(segs[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReplayWindow(dir, ReplayOptions{Strict: true}, func(ingest.Datagram) error { return nil }); !errors.Is(err, ErrCorrupt) {
				t.Errorf("strict replay: got %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestCorruptIndexDegradesToScan covers the manifest/trailer corruption
// satellite: a corrupt or missing MANIFEST, and a corrupt trailer, must
// each degrade to scans with warnings — never fail the replay or change
// what a full replay delivers.
func TestCorruptIndexDegradesToScan(t *testing.T) {
	datagrams := testDatagrams(t, 4, 60)
	from := testStart.AddDate(0, 0, 10)
	to := testStart.AddDate(0, 0, 18)
	var want []ingest.Datagram
	for _, d := range datagrams {
		if !d.Time.Before(from) && d.Time.Before(to) {
			want = append(want, d)
		}
	}
	mkSpool := func(t *testing.T) string {
		dir := filepath.Join(t.TempDir(), "spool")
		record(t, dir, datagrams, Options{SegmentBytes: 16 << 10, Codec: newLZ4Codec()})
		return dir
	}
	wantWarning := func(t *testing.T, stats *ReplayStats, frag string) {
		t.Helper()
		for _, w := range stats.Warnings {
			if strings.Contains(w, frag) {
				return
			}
		}
		t.Errorf("no warning containing %q in %v", frag, stats.Warnings)
	}

	t.Run("corrupt manifest", func(t *testing.T) {
		dir := mkSpool(t)
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not a manifest\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		got, stats := collectReplay(t, dir, ReplayOptions{From: from, To: to, Workers: 4})
		sameDatagrams(t, got, want)
		wantWarning(t, stats, "MANIFEST corrupt")
		if stats.SegmentsSkipped == 0 {
			t.Error("trailer fallback did not restore window pruning")
		}
		if stats.DataLost() {
			t.Errorf("index corruption misreported as data loss: %+v", stats.Torn)
		}
	})

	t.Run("missing manifest", func(t *testing.T) {
		dir := mkSpool(t)
		if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
			t.Fatal(err)
		}
		got, stats := collectReplay(t, dir, ReplayOptions{From: from, To: to})
		sameDatagrams(t, got, want)
		wantWarning(t, stats, "MANIFEST missing")
		if stats.SegmentsSkipped == 0 {
			t.Error("trailer fallback did not restore window pruning")
		}
	})

	t.Run("corrupt trailer", func(t *testing.T) {
		dir := mkSpool(t)
		if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
			t.Fatal(err)
		}
		segs, _ := segments(dir)
		if len(segs) < 3 {
			t.Fatalf("want >= 3 segments, got %d", len(segs))
		}
		// Flip one byte inside the first segment's trailer checksum.
		mid := segs[0]
		data, err := os.ReadFile(mid)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xFF
		if err := os.WriteFile(mid, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, stats := collectReplay(t, dir, ReplayOptions{Workers: 4})
		wantWarning(t, stats, "trailer missing or corrupt")
		// The records themselves were intact, so a full replay still
		// delivers everything; the unverifiable segment is flagged as
		// torn so the loss of certainty is visible.
		sameDatagrams(t, got, datagrams)
		if len(stats.Torn) != 1 || stats.Torn[0].Segment != filepath.Base(mid) {
			t.Errorf("unverifiable segment not surfaced: %+v", stats.Torn)
		}

		// A windowed replay cannot prune the unindexed segment: it is
		// scanned in full, with a warning, and only the indexed segments
		// wholly outside the window are skipped.
		idx, err := LoadIndex(dir)
		if err != nil {
			t.Fatal(err)
		}
		if idx.Segments[0].Indexed {
			t.Fatal("segment with a corrupt trailer is still indexed")
		}
		prunable := 0
		for _, s := range idx.Segments {
			if s.Indexed && (s.Records == 0 || s.Max.Before(from) || !s.Min.Before(to)) {
				prunable++
			}
		}
		got, stats = collectReplay(t, dir, ReplayOptions{From: from, To: to, Workers: 4})
		sameDatagrams(t, got, want)
		wantWarning(t, stats, "unindexed")
		if stats.SegmentsSkipped != prunable || stats.SegmentsRead != len(segs)-prunable {
			t.Errorf("windowed replay read %d and skipped %d of %d segments, want %d skipped (the unindexed one scanned)",
				stats.SegmentsRead, stats.SegmentsSkipped, len(segs), prunable)
		}
	})

	t.Run("stale manifest size", func(t *testing.T) {
		dir := mkSpool(t)
		segs, _ := segments(dir)
		f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0xEE}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		got, stats := collectReplay(t, dir, ReplayOptions{})
		wantWarning(t, stats, "does not match its file size")
		sameDatagrams(t, got, datagrams)
	})
}

// TestLoadIndex checks the index a fresh writer leaves behind: every
// segment indexed, totals matching what was appended, and sizes
// consistent with the files on disk.
func TestLoadIndex(t *testing.T) {
	datagrams := testDatagrams(t, 2, 40)
	dir := filepath.Join(t.TempDir(), "spool")
	record(t, dir, datagrams, Options{SegmentBytes: 32 << 10, Codec: newLZ4Codec()})
	idx, err := LoadIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Warnings) > 0 {
		t.Errorf("fresh spool has index warnings: %v", idx.Warnings)
	}
	var records, stored uint64
	for _, s := range idx.Segments {
		if !s.Indexed {
			t.Errorf("segment %s unindexed", s.Name)
		}
		if s.Codec != "lz4" || s.Version != 2 {
			t.Errorf("segment %s: codec=%q version=%d", s.Name, s.Codec, s.Version)
		}
		if s.Records > 0 && s.Max.Before(s.Min) {
			t.Errorf("segment %s: max %v before min %v", s.Name, s.Max, s.Min)
		}
		st, err := os.Stat(filepath.Join(dir, s.Name))
		if err != nil {
			t.Fatal(err)
		}
		if int64(s.StoredBytes)+segHeaderSize+trailerSize != st.Size() {
			t.Errorf("segment %s: stored=%d inconsistent with file size %d", s.Name, s.StoredBytes, st.Size())
		}
		records += s.Records
		stored += s.StoredBytes
	}
	if records != uint64(len(datagrams)) {
		t.Errorf("index records %d, appended %d", records, len(datagrams))
	}
	var raw uint64
	for _, d := range datagrams {
		raw += recordHeaderSize + uint64(len(d.Payload))
	}
	if stored >= raw {
		t.Errorf("lz4 spool stored %d bytes >= raw %d", stored, raw)
	}
}

// TestEmptySpoolReplays checks a spool closed without appends replays as
// zero records, not an error.
func TestEmptySpoolReplays(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := collectReplay(t, dir, ReplayOptions{Workers: 4})
	if len(got) != 0 || stats.DataLost() {
		t.Errorf("empty spool: delivered %d, stats %+v", len(got), stats)
	}
	if _, err := ReplayWindow(dir, ReplayOptions{Strict: true}, func(ingest.Datagram) error { return errors.New("unexpected datagram") }); err != nil {
		t.Errorf("strict replay of empty spool: %v", err)
	}
}
