package ingest

// Rolling emission: the pipeline's read-side feed. In a batch run the
// weekly panel exists only after Close; with Config.Rolling the pipeline
// additionally publishes an immutable panel Snapshot every time the
// broadcast low-watermark carries the expiry horizon (watermark minus one
// quiet gap) across a week boundary — the ROADMAP's "sinks observing week
// boundaries mid-run" mode that live dashboards need.
//
// The protocol is lock-free on the hot path and copy-on-write on the read
// side:
//
//  1. Each shard worker, while processing a watermark envelope it was
//     already receiving, notices the horizon entered a new week, deep-clones
//     its private panel accumulator (the clone is a few hundred KB and
//     happens at most once per week boundary, not per packet) and hands the
//     clone to the collector goroutine.
//  2. The collector keeps the newest clone per shard and, whenever the
//     minimum sealed week across all shards advances, merges the clones
//     into one fresh Snapshot — never mutating a clone, so re-merges stay
//     correct — and publishes it: an atomic pointer swap plus subscriber
//     callbacks. Readers of Snapshot never take a lock and never observe a
//     partially merged panel.
//  3. Close still drains and flushes exactly as before and then publishes
//     one last Snapshot marked Final, built from the same merged Result the
//     caller receives — so the final rolling snapshot is byte-identical to
//     the batch panel by the pipeline's existing batch-equivalence
//     guarantee (and property-tested directly).
//
// A sealed week is complete "up to the disorder horizon": every flow that
// went quiet inside it is booked. A flow spanning a boundary is booked —
// in the week of its first packet — only when it eventually closes, so a
// sealed week's counts may still grow in later snapshots; they never
// shrink. Snapshot sequences are therefore monotone (each snapshot
// extends the previous one), which is the property the serving layer's
// caches rely on.

import (
	"sync"
	"time"

	"booters/internal/honeypot"
	"booters/internal/obs/trace"
	"booters/internal/timeseries"
)

// Snapshot is one immutable, point-in-time weekly panel published by a
// rolling pipeline. All fields are read-only after publication: a later
// snapshot is a new value, never an update in place.
type Snapshot struct {
	// Seq numbers snapshots from 1, strictly increasing per pipeline.
	Seq uint64
	// Through is the last fully sealed week: every flow that went quiet
	// in or before it has been booked. Valid only when Sealed is true.
	Through timeseries.Week
	// Sealed reports whether any week boundary has been crossed yet; the
	// initial snapshot published at pipeline start is unsealed and empty.
	Sealed bool
	// Final marks the Close-time snapshot, identical to the pipeline's
	// returned Result (and so to the batch panel).
	Final bool
	// Panel is the weekly attack panel over the configured span.
	*timeseries.Panel
	// Stats carries the pipeline counters as of the merge. Until Final,
	// Packets/UnknownPort/Malformed/Late are live readings and Shed and
	// ShedBySensor are zero (their ledgers are only settled at Close).
	Stats Stats
}

// rollPartial is one shard's sealed contribution: a deep clone of its
// panel accumulator, made by the shard worker, owned by the collector.
// sealedAt is the wall-clock instant the worker took the clone, the start
// of the seal-to-publish latency the metrics histogram tracks.
type rollPartial struct {
	shard    int
	through  timeseries.Week
	acc      *accumulator
	sealedAt time.Time
	// tc is the seal span's trace context (zero without a tracer); the
	// publish span it unlocks adopts it as parent.
	tc trace.Context
}

// roller owns rolling emission for one pipeline: the partial channel, the
// collector goroutine, the subscriber list and the sequence counter.
type roller struct {
	in   *Ingestor
	ch   chan rollPartial
	done chan struct{}

	subMu sync.Mutex
	subs  []func(*Snapshot)

	// Collector-goroutine state (moved to Close's goroutine only after
	// done is closed).
	seq      uint64
	partials []*accumulator
	through  []timeseries.Week
	sealed   []bool
	pubBase  timeseries.Week // last published Through
	pubAny   bool
}

// newRoller starts the collector and publishes the initial (unsealed,
// empty) snapshot so readers always have a panel to serve.
func newRoller(in *Ingestor, shards int) *roller {
	r := &roller{
		in:       in,
		ch:       make(chan rollPartial, shards),
		done:     make(chan struct{}),
		partials: make([]*accumulator, shards),
		through:  make([]timeseries.Week, shards),
		sealed:   make([]bool, shards),
	}
	r.publish(r.merge([]*accumulator{newAccumulator(&in.cfg)}, timeseries.Week{}, false))
	go r.collect()
	return r
}

// sealHorizon converts a broadcast watermark into the last fully sealed
// week: the horizon is one quiet gap behind the watermark (nothing behind
// it can change any more), and the last whole week behind the horizon is
// the week before the one containing it.
func sealHorizon(mark time.Time, gap time.Duration) timeseries.Week {
	w := timeseries.WeekOf(mark.Add(-gap))
	return timeseries.Week{Start: w.Start.AddDate(0, 0, -7)}
}

// maybeSeal runs on the shard worker after it applied a watermark
// advance: if the horizon entered a new week since the shard last sealed,
// clone the shard's panel accumulator and hand it to the collector. The
// clone is taken after Advance closed everything expirable, so it holds
// every flow the sealed weeks can claim from this shard.
func (r *roller) maybeSeal(s *shard, mark time.Time) {
	through := sealHorizon(mark, honeypot.FlowGap)
	if through.Before(timeseries.WeekOf(r.in.cfg.Start)) {
		return // horizon has not reached the panel's first week yet
	}
	if s.rollSealed && !s.rollThrough.Before(through) {
		return // this boundary is already sealed
	}
	s.rollSealed, s.rollThrough = true, through
	sealedAt := time.Now()
	acc := s.acc.clone()
	var sealTC trace.Context
	if tr := r.in.cfg.Trace; tr != nil {
		// Week seals are rare and load-bearing, so they are always on
		// record: parented under the shard's last sampled apply span when
		// one exists, a forced root otherwise.
		sealTC = tr.Child(s.lastTC)
		if !sealTC.Sampled() {
			sealTC = tr.RootAlways()
		}
		tr.Record(trace.NameWeekSeal, s.index, sealTC, s.lastTC.Span,
			sealedAt.UnixNano(), time.Since(sealedAt).Nanoseconds(), uint64(acc.stats.Flows))
	}
	r.ch <- rollPartial{shard: s.index, through: through, acc: acc, sealedAt: sealedAt, tc: sealTC}
}

// collect is the collector goroutine: fold incoming partials and publish
// a merged snapshot whenever the cross-shard sealed frontier advances.
func (r *roller) collect() {
	defer close(r.done)
	for p := range r.ch {
		r.partials[p.shard] = p.acc
		r.through[p.shard] = p.through
		r.sealed[p.shard] = true
		frontier, ok := r.frontier()
		if !ok {
			continue // some shard has not sealed its first week yet
		}
		if r.pubAny && !r.pubBase.Before(frontier) {
			continue // frontier did not advance
		}
		r.pubAny, r.pubBase = true, frontier
		pubStart := time.Now()
		r.publish(r.merge(r.partials, frontier, true))
		if r.in.m != nil {
			r.in.m.sealLatency.Observe(time.Since(p.sealedAt))
			// Event-time freshness: when the frontier week became
			// queryable, the stream head had advanced this far past the
			// week's end — the stream-time wait between an event landing
			// at the end of the week and that week being servable.
			if head := r.in.watermark.Load(); head > 0 {
				if lag := time.Duration(head - frontier.Start.AddDate(0, 0, 7).UnixNano()); lag > 0 {
					r.in.m.freshness.Observe(lag)
				}
			}
		}
		if tr := r.in.cfg.Trace; tr != nil {
			// Like seals, publishes are always recorded, chained under the
			// seal span that advanced the frontier.
			tc := tr.Child(p.tc)
			if !tc.Sampled() {
				tc = tr.RootAlways()
			}
			tr.Record(trace.NameSnapshotPublish, p.shard, tc, p.tc.Span,
				pubStart.UnixNano(), time.Since(pubStart).Nanoseconds(), r.seq)
		}
	}
}

// frontier returns the minimum sealed week across shards, and whether
// every shard has sealed at least once.
func (r *roller) frontier() (timeseries.Week, bool) {
	min := r.through[0]
	for i, ok := range r.sealed {
		if !ok {
			return timeseries.Week{}, false
		}
		if r.through[i].Before(min) {
			min = r.through[i]
		}
	}
	return min, true
}

// merge sums accumulator clones into a fresh Snapshot without mutating
// any of them, so the same clones can be re-merged when only one shard
// advanced. Counters the accumulators cannot know are read live from the
// pipeline's atomics.
func (r *roller) merge(accs []*accumulator, through timeseries.Week, sealedYet bool) *Snapshot {
	sum := accs[0].clone()
	sum.add(accs[1:]...)
	snap := &Snapshot{Through: through, Sealed: sealedYet, Panel: sum.panel, Stats: sum.stats}
	snap.Stats.Packets = r.in.packets.Load()
	snap.Stats.UnknownPort = r.in.unknown.Load()
	snap.Stats.Malformed = r.in.malformed.Load()
	snap.Stats.Late = r.in.Late()
	return snap
}

// publish stamps the next sequence number, swaps the pipeline's latest
// pointer and notifies subscribers in registration order. It is called
// from one goroutine at a time: New (before the collector starts), then
// the collector, then Close (after the collector has stopped).
func (r *roller) publish(snap *Snapshot) {
	r.seq++
	snap.Seq = r.seq
	r.in.latest.Store(snap)
	if r.in.m != nil {
		r.in.m.snapshots.Inc()
	}
	r.subMu.Lock()
	subs := make([]func(*Snapshot), len(r.subs))
	copy(subs, r.subs)
	r.subMu.Unlock()
	for _, fn := range subs {
		fn(snap)
	}
}

// finish stops the collector (all shard workers have already exited, so
// nothing is sending) and publishes the Final snapshot cloned from the
// pipeline's merged Result.
func (r *roller) finish(res *Result) {
	close(r.ch)
	<-r.done
	r.publish(&Snapshot{
		Through: res.Global.Week(res.Weeks - 1),
		Sealed:  true,
		Final:   true,
		Panel:   res.Clone(),
		Stats:   res.Stats,
	})
}

// Snapshot returns the latest published rolling snapshot, or nil when the
// pipeline was not built with Config.Rolling. The returned value is
// immutable and safe to read from any goroutine without locking.
func (in *Ingestor) Snapshot() *Snapshot { return in.latest.Load() }

// Rolling reports whether the pipeline publishes rolling snapshots.
func (in *Ingestor) Rolling() bool { return in.roll != nil }

// Packets returns the number of packets accepted so far, a live progress
// counter safe to read while producers are running. It is not adjusted
// for late or shed packets until Close settles the final Stats.
func (in *Ingestor) Packets() uint64 { return in.packets.Load() }

// OnSnapshot subscribes fn to every snapshot published from now on,
// including the Final one. Callbacks run sequentially (publishes are
// serialised) but on pipeline-internal goroutines: fn must not block for
// long and must not call back into Close. Subscribing is safe while the
// pipeline is running; use Snapshot for the current state at subscribe
// time. It returns ErrNotRolling when the pipeline was not built with
// Config.Rolling.
func (in *Ingestor) OnSnapshot(fn func(*Snapshot)) error {
	if in.roll == nil {
		return ErrNotRolling
	}
	in.roll.subMu.Lock()
	in.roll.subs = append(in.roll.subs, fn)
	in.roll.subMu.Unlock()
	return nil
}
