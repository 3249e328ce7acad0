package spool

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/obs/trace"
)

// ReplayOptions tunes ReplayWindow.
type ReplayOptions struct {
	// From and To bound the replay to records with From <= Time < To.
	// A zero From means "from the beginning", a zero To "to the end".
	// Segments whose indexed time range falls entirely outside the
	// window are skipped without being opened.
	From, To time.Time
	// Workers is the number of concurrent segment readers; <= 1 reads
	// segments inline on the calling goroutine. Readers decode segments
	// in parallel, but records are always delivered to fn sequentially,
	// in recorded spool order: the ordered flow aggregator's quiet-gap
	// rule is order-sensitive, so delivery order is part of the replay
	// contract (see ARCHITECTURE.md).
	Workers int
	// Strict makes any corruption fail the whole replay with an error
	// wrapping ErrCorrupt, matching Replay. The default (false) contains
	// corruption to the segment it occurs in: complete records before
	// the tear are delivered, the loss is booked in ReplayStats.Torn,
	// and the replay continues with the next segment.
	Strict bool
	// OnWatermark, when non-nil, receives the spool's low-watermark each
	// time a segment has been fully delivered: the minimum trailer Min
	// over the segments still to come, so every record delivered after a
	// call reporting time T is stamped at or after T. Calls come from the
	// goroutine that calls fn, between fn calls, and are strictly
	// increasing. An unindexed segment (no trusted trailer) holds the
	// watermark back until it has been delivered. Feed it to an
	// order-tolerant pipeline's Source.Advance so flows expire mid-replay.
	OnWatermark func(time.Time)
	// Metrics, when non-nil, registers the replay counters (records
	// delivered, window-filtered, segments read/skipped, torn and
	// unindexed segments — see docs/METRICS.md) on the given registry and
	// keeps them live during the replay: each segment is booked as soon
	// as its records have been delivered, not at end of run. nil
	// disables instrumentation.
	Metrics *obs.Registry

	// Trace, when non-nil, records spool.segment spans — one sampling
	// decision and at most one span per segment scanned, covering the
	// segment's whole decode-and-deliver wall time with the record count
	// as the span payload. nil disables tracing at one pointer test.
	Trace *trace.Tracer
}

// TornSegment records data loss met during a tolerant replay: a segment
// that ended in a torn record, a missing or corrupt trailer, a failed
// checksum, or a record-count mismatch.
type TornSegment struct {
	// Segment is the segment's file name.
	Segment string
	// Records is the number of complete records recovered from the
	// segment before the tear.
	Records uint64
	// Reason is the human-readable corruption diagnosis.
	Reason string
}

// ReplayStats reports what a ReplayWindow call delivered, skipped and
// lost. A replay with len(Torn) == 0 and len(Warnings) == 0 delivered
// every record the window asked for from a fully verified spool.
type ReplayStats struct {
	// Records is the number of datagrams delivered to fn.
	Records uint64
	// Filtered is the number of records read but outside [From, To).
	Filtered uint64
	// SegmentsRead and SegmentsSkipped count segments scanned versus
	// pruned by the index (including empty segments).
	SegmentsRead, SegmentsSkipped int
	// Torn lists segments that lost data to truncation or corruption.
	// Empty on a clean replay; in strict mode the replay errors instead.
	Torn []TornSegment
	// Warnings lists index degradations (corrupt MANIFEST, torn
	// trailers, unindexed segments scanned in full) inherited from
	// LoadIndex plus any replay-level notes.
	Warnings []string
}

// DataLost reports whether the replay lost records to corruption.
func (st *ReplayStats) DataLost() bool { return len(st.Torn) > 0 }

// replayBatchLen is the record-batch granularity of the parallel replay
// hand-off; big enough that channel overhead vanishes against decode
// cost, small enough to bound buffered memory.
const replayBatchLen = 1024

// segTaskDepth is each in-flight segment's buffered batch count: workers
// may run at most this far ahead of the in-order delivery point within
// one segment.
const segTaskDepth = 4

// ReplayWindow streams the spooled datagrams whose timestamps fall in
// the half-open window [From, To) through fn, in recorded order, using
// the per-segment index to skip segments wholly outside the window and
// opts.Workers concurrent readers to decode segments in parallel. It
// returns the replay's statistics alongside any terminal error; the
// stats are meaningful even when the error is non-nil.
//
// Unless opts.Strict is set, corruption never fails the replay: every
// complete record before a tear is delivered and the loss is reported in
// the stats, so one torn segment cannot cost the rest of a capture.
//
// Payloads are borrowed for the duration of each fn call (see
// Reader.Next): they alias a reader's mapped segment or reused decode
// buffer — or, with parallel readers, a pooled batch arena — and are
// recycled as soon as fn returns. fn must copy any payload it keeps.
func ReplayWindow(dir string, opts ReplayOptions, fn func(ingest.Datagram) error) (*ReplayStats, error) {
	stats := &ReplayStats{}
	idx, err := LoadIndex(dir)
	if err != nil {
		return stats, err
	}
	if len(idx.Segments) == 0 {
		return stats, fmt.Errorf("spool: no segments in %s", dir)
	}
	stats.Warnings = append(stats.Warnings, idx.Warnings...)
	r := &replayRun{dir: dir, opts: opts, stats: stats, fn: fn,
		from: math.MinInt64, to: math.MaxInt64, lastMark: math.MinInt64}
	if opts.Metrics != nil {
		r.m = newReplayMetrics(opts.Metrics)
	}
	if !opts.From.IsZero() {
		r.from = opts.From.UnixNano()
	}
	if !opts.To.IsZero() {
		r.to = opts.To.UnixNano()
	}
	windowed := r.from != math.MinInt64 || r.to != math.MaxInt64

	unindexed := 0
	for i := range idx.Segments {
		info := &idx.Segments[i]
		if !info.overlaps(r.from, r.to) {
			stats.SegmentsSkipped++
			if r.m != nil {
				r.m.segsSkip.Inc()
			}
			continue
		}
		if !info.Indexed {
			unindexed++
			if r.m != nil {
				r.m.unindexed.Inc()
			}
		}
		r.scan = append(r.scan, info)
	}
	if windowed && unindexed > 0 {
		stats.Warnings = append(stats.Warnings,
			fmt.Sprintf("%d unindexed segment(s) cannot be window-pruned and will be scanned in full", unindexed))
	}
	if len(r.scan) == 0 {
		return stats, nil
	}
	if opts.OnWatermark != nil {
		r.marks = lowMarks(r.scan)
	}
	if opts.Workers <= 1 {
		return stats, r.sequential()
	}
	return stats, r.parallel()
}

// replayRun is one ReplayWindow call's state: the segments selected for
// scanning, the window bounds in Unix nanoseconds, and the outputs.
type replayRun struct {
	dir      string
	scan     []*SegmentInfo
	from, to int64
	opts     ReplayOptions
	stats    *ReplayStats
	m        *replayMetrics
	fn       func(ingest.Datagram) error
	// marks[i] is the low-watermark once scan[:i+1] has been delivered
	// (lowMarks); nil without OnWatermark. lastMark is the last one
	// reported.
	marks    []int64
	lastMark int64
}

// lowMarks returns, for each scanned segment i, the low-watermark that
// holds once segments 0..i have been delivered: the minimum trailer Min
// over scan[i+1:], computed once as a suffix minimum. An unindexed
// segment has no trusted Min, so it pins every mark before it to
// math.MinInt64 (unknown); the last mark is math.MaxInt64 (nothing left
// to come).
func lowMarks(scan []*SegmentInfo) []int64 {
	marks := make([]int64, len(scan))
	low := int64(math.MaxInt64)
	for i := len(scan) - 1; i >= 0; i-- {
		marks[i] = low
		switch info := scan[i]; {
		case !info.Indexed:
			low = math.MinInt64
		case info.Records > 0:
			low = min(low, info.Min.UnixNano())
		}
	}
	return marks
}

// scanSegment streams one segment's in-window records through yield. It
// returns the records read, records filtered by the window, the
// corruption error met (nil for a clean segment), and the first error
// yield returned (which aborts the scan). Every record is decoded in
// place into one Datagram owned by the scan, so yield's pointer — and the
// payload it carries — is borrowed for the length of the call only.
func scanSegment(path string, from, to int64, yield func(*ingest.Datagram) error) (read, filtered uint64, scanErr, yieldErr error) {
	sr, err := openSegmentReader(path)
	if err != nil {
		return 0, 0, err, nil
	}
	defer sr.close()
	var d ingest.Datagram
	for {
		err := sr.next(&d)
		if err == io.EOF {
			return read, filtered, nil, nil
		}
		if err != nil {
			return read, filtered, err, nil
		}
		read++
		if ns := d.Time.UnixNano(); ns < from || ns >= to {
			filtered++
			continue
		}
		if err := yield(&d); err != nil {
			return read, filtered, nil, err
		}
	}
}

// delivered books scan[i] once all of its records have reached fn: its
// outcome goes into the stats and metrics, the strictness policy is
// applied to its corruption error, if any, and the low-watermark is
// reported if it advanced.
func (r *replayRun) delivered(i int, read, filtered uint64, scanErr error) error {
	r.stats.SegmentsRead++
	r.stats.Filtered += filtered
	if r.m != nil {
		r.m.segsRead.Inc()
		r.m.filtered.Add(filtered)
		if scanErr != nil {
			r.m.torn.Inc()
		}
	}
	if scanErr != nil {
		if r.opts.Strict {
			return scanErr
		}
		r.stats.Torn = append(r.stats.Torn, TornSegment{Segment: r.scan[i].Name, Records: read, Reason: corruptReason(scanErr)})
	}
	// A mark of math.MinInt64 (unknown) never exceeds lastMark; the final
	// math.MaxInt64 (replay over) is not reported: the consumer's flush
	// closes everything.
	if r.marks != nil {
		if mark := r.marks[i]; mark > r.lastMark && mark != math.MaxInt64 {
			r.lastMark = mark
			r.opts.OnWatermark(time.Unix(0, mark).UTC())
		}
	}
	return nil
}

// segmentSpan makes one per-segment sampling decision and returns the
// completion hook: call it with the records read once the scan is done.
// With a nil tracer (or an unsampled decision) both halves are no-ops.
func segmentSpan(tr *trace.Tracer, lane int) func(read uint64) {
	stc := tr.Root()
	if !stc.Sampled() {
		return func(uint64) {}
	}
	t0 := time.Now().UnixNano()
	return func(read uint64) {
		tr.Record(trace.NameSpoolSegment, lane, stc, 0, t0, time.Now().UnixNano()-t0, read)
	}
}

// sequential scans the selected segments inline, in order.
func (r *replayRun) sequential() error {
	for i, info := range r.scan {
		span := segmentSpan(r.opts.Trace, 0)
		read, filtered, scanErr, yieldErr := scanSegment(idxPath(r.dir, info), r.from, r.to, func(d *ingest.Datagram) error {
			if err := r.fn(*d); err != nil {
				return err
			}
			r.stats.Records++
			if r.m != nil {
				r.m.records.Inc()
			}
			return nil
		})
		if yieldErr != nil {
			return yieldErr
		}
		span(read)
		if err := r.delivered(i, read, filtered, scanErr); err != nil {
			return err
		}
	}
	return nil
}

// replayBatch carries up to replayBatchLen records through the parallel
// replay's channel hand-off, plus the arena their payload bytes are
// copied into. Payloads coming out of a segment scan are borrows that
// die with the reader's next block, but a parallel batch outlives the
// block cursor inside its segment channel, so add copies each payload
// into the batch's own arena. Batches (and their arenas) are pooled, so
// the copy costs a memmove, not an allocation.
type replayBatch struct {
	recs []ingest.Datagram
	buf  []byte
}

// add appends a copy of *d — the one copy of the record on its way to
// the sequencer — and re-homes its payload into the batch arena.
func (b *replayBatch) add(d *ingest.Datagram) {
	b.recs = append(b.recs, *d)
	if len(d.Payload) > 0 {
		n := len(b.buf)
		b.buf = append(b.buf, d.Payload...)
		// If the append grew the arena, earlier records still point into
		// the previous backing array, which stays alive as long as they
		// do — correct, just briefly less compact until the pool warms.
		b.recs[len(b.recs)-1].Payload = b.buf[n : n+len(d.Payload) : n+len(d.Payload)]
	}
}

// segTask carries one segment through the parallel replay: a worker
// fills ch with record batches and stamps the outcome fields, all of
// which become visible to the sequencer when ch is closed.
type segTask struct {
	info *SegmentInfo
	ch   chan *replayBatch

	read, filtered uint64
	scanErr        error
}

// parallel fans the selected segments out to opts.Workers reader
// goroutines and re-serialises their record batches so fn still observes
// recorded spool order. A claim token is needed per in-flight segment
// and is only returned once the sequencer has fully consumed it, so
// decode-ahead — and with it buffered memory — is bounded to 2x workers
// segments of at most segTaskDepth batches each, even when segments are
// tiny and a fast worker could otherwise sprint through the whole spool
// ahead of a slow consumer.
func (r *replayRun) parallel() error {
	tasks := make([]*segTask, len(r.scan))
	for i, info := range r.scan {
		tasks[i] = &segTask{info: info, ch: make(chan *replayBatch, segTaskDepth)}
	}
	workers := min(r.opts.Workers, len(tasks))
	tokens := make(chan struct{}, 2*workers)
	for i := 0; i < cap(tokens); i++ {
		tokens <- struct{}{}
	}
	stop := make(chan struct{})
	var next atomic.Int64
	var pool sync.Pool
	getBatch := func() *replayBatch {
		if v := pool.Get(); v != nil {
			b := v.(*replayBatch)
			b.recs = b.recs[:0]
			b.buf = b.buf[:0]
			return b
		}
		return &replayBatch{recs: make([]ingest.Datagram, 0, replayBatchLen)}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				select {
				case <-tokens:
				case <-stop:
					// Terminal error downstream: claiming further
					// segments would decode data nobody will consume.
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				t := tasks[i]
				batch := getBatch()
				aborted := false
				span := segmentSpan(r.opts.Trace, lane)
				t.read, t.filtered, t.scanErr, _ = scanSegment(idxPath(r.dir, t.info), r.from, r.to, func(d *ingest.Datagram) error {
					batch.add(d)
					if len(batch.recs) == replayBatchLen {
						select {
						case t.ch <- batch:
							batch = getBatch()
						case <-stop:
							aborted = true
							return errReplayStopped
						}
					}
					return nil
				})
				if !aborted && len(batch.recs) > 0 {
					select {
					case t.ch <- batch:
					case <-stop:
						aborted = true
					}
				}
				close(t.ch)
				if aborted {
					return
				}
				span(t.read)
			}
		}(w)
	}
	abort := func(err error) error {
		// Every worker send (and the claim loop) selects on stop, so
		// closing it unblocks them all; buffered batches die with their
		// channels once the workers have returned.
		close(stop)
		wg.Wait()
		return err
	}
	for i, t := range tasks {
		for batch := range t.ch {
			for i := range batch.recs {
				if err := r.fn(batch.recs[i]); err != nil {
					return abort(err)
				}
				r.stats.Records++
			}
			if r.m != nil {
				r.m.records.Add(uint64(len(batch.recs)))
			}
			pool.Put(batch)
		}
		// The channel close happens after the worker's final field
		// writes, so the outcome is safely visible here.
		if err := r.delivered(i, t.read, t.filtered, t.scanErr); err != nil {
			return abort(err)
		}
		// Segment fully consumed: return its claim token so a worker
		// can start the next one.
		tokens <- struct{}{}
	}
	wg.Wait()
	return nil
}

// errReplayStopped aborts a worker's scan after the sequencer hit a
// terminal error; it never escapes the package.
var errReplayStopped = fmt.Errorf("spool: replay stopped")

// idxPath rebuilds a segment's path from its index entry.
func idxPath(dir string, info *SegmentInfo) string {
	return filepath.Join(dir, info.Name)
}
