package spool

import (
	"fmt"
	"path/filepath"
	"testing"

	"booters/internal/ingest"
)

// withBufferedReaders runs fn with the mmap path disabled, so every
// segment reader exercises the buffered fallback.
func withBufferedReaders(t *testing.T, fn func()) {
	t.Helper()
	disableMmap = true
	defer func() { disableMmap = false }()
	fn()
}

// readSequential drains a spool through the sequential Reader, copying
// each borrowed payload.
func readSequential(t *testing.T, dir string) []ingest.Datagram {
	t.Helper()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []ingest.Datagram
	for {
		d, err := r.Next()
		if err != nil {
			break
		}
		d.Payload = append([]byte(nil), d.Payload...)
		got = append(got, d)
	}
	return got
}

// TestMmapEngages pins that the mapped path is actually exercised on
// platforms that support it — without this the equivalence properties
// below could silently compare the fallback against itself.
func TestMmapEngages(t *testing.T) {
	datagrams := testDatagrams(t, 1, 30)
	dir := filepath.Join(t.TempDir(), "spool")
	record(t, dir, datagrams, Options{})
	segs, err := segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatal("no segments recorded")
	}
	sr, err := openSegmentReader(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer sr.close()
	if sr.mm == nil {
		t.Skip("mmap unavailable on this platform; fallback path is the only path")
	}
	if sr.br != nil {
		t.Error("mapped reader still carries a buffered reader")
	}
}

// TestMmapMatchesBuffered is the mmap/fallback equivalence property:
// for every codec, the mapped reader and the buffered fallback must
// deliver byte-identical datagram sequences through the sequential
// Reader, ReplayWindow (1 and 4 workers), and a time-windowed replay.
func TestMmapMatchesBuffered(t *testing.T) {
	datagrams := testDatagrams(t, 3, 50)
	from := testStart.AddDate(0, 0, 6)
	to := testStart.AddDate(0, 0, 16)
	for _, codec := range testCodecs(t) {
		t.Run("codec="+codec.Name(), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "spool")
			record(t, dir, datagrams, Options{SegmentBytes: 32 << 10, BlockBytes: 4 << 10, Codec: codec})

			mseq := readSequential(t, dir)
			var bseq []ingest.Datagram
			withBufferedReaders(t, func() { bseq = readSequential(t, dir) })
			sameDatagrams(t, mseq, bseq)
			sameDatagrams(t, mseq, datagrams)

			for _, workers := range []int{1, 4} {
				mgot, mstats := collectReplay(t, dir, ReplayOptions{Workers: workers})
				var bgot []ingest.Datagram
				var bstats *ReplayStats
				withBufferedReaders(t, func() { bgot, bstats = collectReplay(t, dir, ReplayOptions{Workers: workers}) })
				sameDatagrams(t, mgot, bgot)
				if mstats.SegmentsRead != bstats.SegmentsRead {
					t.Errorf("workers=%d: mapped read %d segments, buffered %d", workers, mstats.SegmentsRead, bstats.SegmentsRead)
				}
			}

			mwin, _ := collectReplay(t, dir, ReplayOptions{From: from, To: to, Workers: 4})
			var bwin []ingest.Datagram
			withBufferedReaders(t, func() { bwin, _ = collectReplay(t, dir, ReplayOptions{From: from, To: to, Workers: 4}) })
			sameDatagrams(t, mwin, bwin)

		})
	}
}

// TestMmapMatchesBufferedTornTail extends the equivalence to damaged
// spools: a truncated final segment must yield the same recovered
// records and the same torn-segment diagnosis on both paths.
func TestMmapMatchesBufferedTornTail(t *testing.T) {
	datagrams := testDatagrams(t, 2, 50)
	for _, codec := range testCodecs(t) {
		t.Run("codec="+codec.Name(), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "spool")
			record(t, dir, datagrams, Options{SegmentBytes: 32 << 10, BlockBytes: 4 << 10, Codec: codec})
			tornLastSegment(t, dir, 100)

			mgot, mstats := collectReplay(t, dir, ReplayOptions{Workers: 4})
			var bgot []ingest.Datagram
			var bstats *ReplayStats
			withBufferedReaders(t, func() { bgot, bstats = collectReplay(t, dir, ReplayOptions{Workers: 4}) })
			sameDatagrams(t, mgot, bgot)
			if len(mstats.Torn) != 1 || len(bstats.Torn) != 1 {
				t.Fatalf("torn segments: mapped %d, buffered %d, want 1 each", len(mstats.Torn), len(bstats.Torn))
			}
			if mstats.Torn[0] != bstats.Torn[0] {
				t.Errorf("torn diagnosis diverged:\n  mapped:   %+v\n  buffered: %+v", mstats.Torn[0], bstats.Torn[0])
			}
		})
	}
}

// TestOpenAtMatchesAcrossModes pins the resume primitive on both
// reader paths: OpenAt at every whole-segment boundary and a few
// mid-segment offsets returns the same suffix mapped and buffered.
func TestOpenAtMatchesAcrossModes(t *testing.T) {
	datagrams := testDatagrams(t, 1, 40)
	dir := filepath.Join(t.TempDir(), "spool")
	record(t, dir, datagrams, Options{SegmentBytes: 8 << 10, BlockBytes: 2 << 10})

	readFrom := func(offset uint64) []ingest.Datagram {
		r, err := OpenAt(dir, offset)
		if err != nil {
			t.Fatalf("OpenAt(%d): %v", offset, err)
		}
		defer r.Close()
		var got []ingest.Datagram
		for {
			d, err := r.Next()
			if err != nil {
				break
			}
			d.Payload = append([]byte(nil), d.Payload...)
			got = append(got, d)
		}
		return got
	}
	for _, offset := range []uint64{0, 1, 7, uint64(len(datagrams)) / 2, uint64(len(datagrams)) - 1, uint64(len(datagrams))} {
		t.Run(fmt.Sprintf("offset=%d", offset), func(t *testing.T) {
			mgot := readFrom(offset)
			var bgot []ingest.Datagram
			withBufferedReaders(t, func() { bgot = readFrom(offset) })
			sameDatagrams(t, mgot, bgot)
			sameDatagrams(t, mgot, datagrams[offset:])
		})
	}
}
