// Package trace is a sampled, zero-dependency span system for the
// ingest pipeline: a "flight recorder" that captures where time goes
// between a packet leaving a sensor and the week it lands in becoming
// queryable. Stages record spans — batch build, wire receive, shard
// enqueue/dequeue, flow-table apply, watermark broadcast, week seal,
// snapshot publish, serve query — into lock-free per-lane ring buffers
// that are merged only at scrape time, honoring the same
// merge-at-scrape invariant as internal/obs counters. Span records are
// preallocated ring slots, so steady-state recording allocates nothing;
// a nil *Tracer disables every call site at the cost of one pointer
// test. Spans slower than a configurable threshold are pinned in a
// separate ring (evicted only by newer slow spans, never by fast
// traffic) and promoted to a structured warning log. Snapshots export
// as Chrome trace-event JSON loadable in chrome://tracing or Perfetto.
// The span model and recorder semantics are documented in
// docs/TRACING.md.
package trace

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Context identifies one sampled span within one trace. The zero
// Context means "not sampled": every Tracer method accepts it and does
// nothing, so unsampled batches pay no recording cost anywhere
// downstream.
type Context struct {
	// Trace groups the spans of one end-to-end journey (one sensor
	// batch and everything it caused). Zero means unsampled.
	Trace uint64
	// Span is this span's own identifier, unique process-wide, used as
	// the Parent of downstream child spans.
	Span uint64
}

// Sampled reports whether the context belongs to a sampled trace.
func (c Context) Sampled() bool { return c.Trace != 0 }

// NameID indexes the tracer's span-name table. Pipeline stages use the
// built-in names below; Register adds more.
type NameID uint8

// Built-in span names, one per pipeline stage that records spans.
const (
	// NameUnknown is the zero NameID; it never appears in recorded
	// spans.
	NameUnknown NameID = iota
	// NameSensorBatch covers building and shipping one wire batch on
	// the sensor side (the root of a cross-process trace).
	NameSensorBatch
	// NameWireBatch covers receiving, decoding and applying one batch
	// frame on the collector side.
	NameWireBatch
	// NameSpoolSegment covers decoding one spool segment during
	// replay.
	NameSpoolSegment
	// NameIngestEnqueue covers a packet batch's time in a shard queue,
	// from flush to dequeue.
	NameIngestEnqueue
	// NameIngestApply covers applying a dequeued packet batch to a
	// shard's flow table.
	NameIngestApply
	// NameWatermark covers one watermark broadcast across all shards.
	NameWatermark
	// NameWeekSeal covers a shard adding its week-range growth into the
	// rolling pipeline's unpublished panel at a week boundary (waiting
	// for the publish lock included); its value is the number of in-span
	// attacks booked since the shard's last seal.
	NameWeekSeal
	// NameSnapshotPublish covers the sealing shard publishing the
	// unpublished panel when its seal advanced the frontier: the atomic
	// swap and the subscriber callbacks, up to the moment they have
	// returned (the clone of the next panel comes after it).
	NameSnapshotPublish
	// NameServeQuery covers one HTTP query against the serve API.
	NameServeQuery

	nameBuiltins // first free ID for Register
)

// builtinNames resolves the built-in NameIDs. Dotted names double as
// trace-event categories (the prefix before the dot).
var builtinNames = [nameBuiltins]string{
	NameUnknown:         "unknown",
	NameSensorBatch:     "sensor.batch",
	NameWireBatch:       "wire.batch",
	NameSpoolSegment:    "spool.segment",
	NameIngestEnqueue:   "ingest.enqueue",
	NameIngestApply:     "ingest.apply",
	NameWatermark:       "ingest.watermark",
	NameWeekSeal:        "week.seal",
	NameSnapshotPublish: "snapshot.publish",
	NameServeQuery:      "serve.query",
}

// Span is one recorded span as returned by Snapshot, with its NameID
// resolved against the tracer's name table.
type Span struct {
	// Name is the resolved span name, e.g. "ingest.apply".
	Name string
	// Trace and ID are the span's Context.
	Trace, ID uint64
	// Parent is the Span ID of the parent span, or zero for a root.
	Parent uint64
	// Lane is the recording lane the caller passed (shard or worker
	// index), kept as the trace-event thread ID.
	Lane uint16
	// Start is the span's start time in Unix nanoseconds.
	Start int64
	// Dur is the span's duration in nanoseconds.
	Dur int64
	// Count is the caller-defined payload size (records in the batch,
	// bytes in the frame — see docs/TRACING.md per name).
	Count uint64
	// Pinned marks a slow span retained in the pinned ring.
	Pinned bool
}

// Config parameterises New. The zero value gives usable defaults.
type Config struct {
	// SampleEvery records one root trace per N sampling decisions
	// (Root calls). 0 or 1 samples every root; the pipeline default
	// set by the CLIs is 16.
	SampleEvery int
	// RingSize is the per-lane ring capacity in spans, rounded up to a
	// power of two. Default 2048.
	RingSize int
	// Lanes is the number of independent writer rings; callers' lane
	// indices are folded onto them. Default 8.
	Lanes int
	// SlowThreshold pins (and log-promotes) spans of at least this
	// duration. Default 250ms. Negative disables pinning.
	SlowThreshold time.Duration
	// PinnedSize is the pinned ring capacity. Default 256.
	PinnedSize int
	// Log, when set, receives a Warn record for every pinned (slow)
	// span — the automatic slow-batch/slow-query log promotion.
	Log *slog.Logger
}

// slot is one preallocated span record. All fields are atomics so
// concurrent claim/write/scan is race-detector clean; seq is a per-slot
// seqlock (odd = write in progress) that lets the scrape-time reader
// detect torn reads without ever blocking a writer.
type slot struct {
	seq    atomic.Uint64
	trace  atomic.Uint64
	id     atomic.Uint64
	parent atomic.Uint64
	start  atomic.Int64
	dur    atomic.Int64
	meta   atomic.Uint64 // name (8 bits) | lane (16 bits) | count (40 bits)
}

// ring is one multi-writer span ring: writers claim slots with an
// atomic head increment and publish them under the slot seqlock, so a
// writer never waits and a wrapped-upon writer drops its span rather
// than spin.
type ring struct {
	head  atomic.Uint64
	_     [56]byte // keep head off the slots' cache lines
	mask  uint64
	slots []slot
}

const countBits = 40

// packMeta folds name, lane and count into one word. Counts saturate
// at 2^40-1.
func packMeta(name NameID, lane uint16, count uint64) uint64 {
	if count >= 1<<countBits {
		count = 1<<countBits - 1
	}
	return uint64(name)<<56 | uint64(lane)<<countBits | count
}

func unpackMeta(m uint64) (NameID, uint16, uint64) {
	return NameID(m >> 56), uint16(m >> countBits), m & (1<<countBits - 1)
}

// write claims the next slot and publishes one span into it. Returns
// false when the span was dropped because a concurrent writer held the
// same (wrapped) slot mid-write.
func (r *ring) write(name NameID, lane uint16, tc Context, parent uint64, startNs, durNs int64, count uint64) bool {
	s := &r.slots[(r.head.Add(1)-1)&r.mask]
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		return false
	}
	s.trace.Store(tc.Trace)
	s.id.Store(tc.Span)
	s.parent.Store(parent)
	s.start.Store(startNs)
	s.dur.Store(durNs)
	s.meta.Store(packMeta(name, lane, count))
	s.seq.Store(seq + 2)
	return true
}

// collect appends every stable, non-empty slot to dst. Torn slots are
// retried a few times, then skipped — the recorder favours writers.
func (r *ring) collect(dst []Span, names []string, pinned bool) []Span {
	for i := range r.slots {
		s := &r.slots[i]
		for try := 0; try < 3; try++ {
			seq := s.seq.Load()
			if seq&1 != 0 {
				continue
			}
			tr, id, parent := s.trace.Load(), s.id.Load(), s.parent.Load()
			start, dur, meta := s.start.Load(), s.dur.Load(), s.meta.Load()
			if s.seq.Load() != seq {
				continue
			}
			if tr == 0 {
				break // never written
			}
			name, lane, count := unpackMeta(meta)
			n := "unknown"
			if int(name) < len(names) {
				n = names[name]
			}
			dst = append(dst, Span{
				Name: n, Trace: tr, ID: id, Parent: parent,
				Lane: lane, Start: start, Dur: dur, Count: count,
				Pinned: pinned,
			})
			break
		}
	}
	return dst
}

// newRing allocates a ring of size slots (rounded up to a power of
// two).
func newRing(size int) ring {
	n := 1
	for n < size {
		n <<= 1
	}
	return ring{mask: uint64(n - 1), slots: make([]slot, n)}
}

// Tracer is the flight recorder. All methods are safe on a nil
// receiver (they do nothing and return zero Contexts), so a nil
// *Tracer in a Config disables tracing everywhere downstream. All
// methods are safe for concurrent use.
type Tracer struct {
	sampleEvery uint64
	slowNs      int64
	log         *slog.Logger
	ticks       atomic.Uint64 // sampling decisions
	ids         atomic.Uint64 // span/trace ID source
	drops       atomic.Uint64
	lanes       []ring
	pinned      ring
	mu          sync.Mutex
	names       []string
}

// New builds a Tracer from cfg, applying the documented defaults for
// zero fields.
func New(cfg Config) *Tracer {
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 2048
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = 8
	}
	if cfg.PinnedSize <= 0 {
		cfg.PinnedSize = 256
	}
	slowNs := cfg.SlowThreshold.Nanoseconds()
	if cfg.SlowThreshold == 0 {
		slowNs = (250 * time.Millisecond).Nanoseconds()
	} else if cfg.SlowThreshold < 0 {
		slowNs = -1
	}
	t := &Tracer{
		sampleEvery: uint64(cfg.SampleEvery),
		slowNs:      slowNs,
		log:         cfg.Log,
		lanes:       make([]ring, cfg.Lanes),
		pinned:      newRing(cfg.PinnedSize),
		names:       builtinNames[:],
	}
	for i := range t.lanes {
		t.lanes[i] = newRing(cfg.RingSize)
	}
	return t
}

// Register adds a span name to the tracer's table and returns its ID.
// Registering an already-known name returns the existing ID. The table
// holds at most 256 names; past that, Register returns NameUnknown.
func (t *Tracer) Register(name string) NameID {
	if t == nil {
		return NameUnknown
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, n := range t.names {
		if n == name {
			return NameID(i)
		}
	}
	if len(t.names) >= 256 {
		return NameUnknown
	}
	t.names = append(t.names, name)
	return NameID(len(t.names) - 1)
}

// Root makes one sampling decision and returns a new root Context when
// it wins (every SampleEvery-th call), the zero Context otherwise.
func (t *Tracer) Root() Context {
	if t == nil {
		return Context{}
	}
	if t.sampleEvery > 1 && t.ticks.Add(1)%t.sampleEvery != 0 {
		return Context{}
	}
	id := t.ids.Add(1)
	return Context{Trace: id, Span: id}
}

// RootAlways returns a new root Context unconditionally (no sampling
// decision). Rare, load-bearing events — week seals, snapshot
// publishes — use it so they are always on record.
func (t *Tracer) RootAlways() Context {
	if t == nil {
		return Context{}
	}
	id := t.ids.Add(1)
	return Context{Trace: id, Span: id}
}

// Child returns a new span Context under parent's trace, or the zero
// Context when the parent is unsampled.
func (t *Tracer) Child(parent Context) Context {
	if t == nil || parent.Trace == 0 {
		return Context{}
	}
	return Context{Trace: parent.Trace, Span: t.ids.Add(1)}
}

// Record stores one completed span. It does nothing for a nil tracer
// or an unsampled Context. lane picks the writer ring (callers pass
// their shard or worker index; it is folded onto the configured lane
// count but kept verbatim in the span). parent is the parent span's
// ID, zero for roots. startNs is the span start in Unix nanoseconds,
// durNs its duration, count the caller-defined payload size. Spans at
// or over the slow threshold go to the pinned ring and, when a log is
// configured, emit a Warn record.
func (t *Tracer) Record(name NameID, lane int, tc Context, parent uint64, startNs, durNs int64, count uint64) {
	if t == nil || tc.Trace == 0 {
		return
	}
	if durNs < 0 {
		durNs = 0
	}
	l16 := uint16(lane)
	if t.slowNs >= 0 && durNs >= t.slowNs {
		if !t.pinned.write(name, l16, tc, parent, startNs, durNs, count) {
			t.drops.Add(1)
		}
		if t.log != nil {
			t.log.LogAttrs(context.Background(), slog.LevelWarn, "slow span",
				slog.String("span", t.Name(name)),
				slog.Int("lane", lane),
				slog.Duration("dur", time.Duration(durNs)),
				slog.Uint64("count", count),
				slog.Uint64("trace", tc.Trace))
		}
		return
	}
	r := &t.lanes[lane%len(t.lanes)]
	if !r.write(name, l16, tc, parent, startNs, durNs, count) {
		t.drops.Add(1)
	}
}

// Name resolves a NameID against the tracer's table.
func (t *Tracer) Name(id NameID) string {
	if t == nil {
		return "unknown"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < len(t.names) {
		return t.names[id]
	}
	return "unknown"
}

// Drops returns the number of spans dropped because a wrapped slot was
// mid-write (writer collision under extreme churn).
func (t *Tracer) Drops() uint64 {
	if t == nil {
		return 0
	}
	return t.drops.Load()
}

// Snapshot merges every lane ring plus the pinned ring into one
// time-ordered span list. This is the only point where lanes meet — it
// allocates, takes no locks against writers, and is intended for
// scrape-time use (/v1/trace, tests).
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	names := t.names
	t.mu.Unlock()
	var spans []Span
	spans = t.pinned.collect(spans, names, true)
	for i := range t.lanes {
		spans = t.lanes[i].collect(spans, names, false)
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	return spans
}
