package ingest

// Rolling emission: the pipeline's read-side feed. In a batch run the
// weekly panel exists only after Close; with Config.Rolling the pipeline
// additionally publishes an immutable panel Snapshot every time the
// broadcast low-watermark carries the expiry horizon (watermark minus one
// quiet gap) across a week boundary — the ROADMAP's "sinks observing week
// boundaries mid-run" mode that live dashboards need.
//
// A week seals at the crossing, not at the next packet-count broadcast
// (Config.WatermarkEvery): the pipeline keeps the instant at which the
// earliest unsealed week becomes sealable (its end plus one quiet gap,
// Ingestor.nextSeal) and broadcasts the watermark as soon as producer
// progress lifts the low-watermark past it — checked per packet in Ingest
// for a sourceless ordered pipeline, and in Source.Advance and
// Source.Close otherwise, so a stream that goes quiet but keeps promising
// (a heartbeating sensor) still seals. Only the timing moves: the mark is
// the ordinary low-watermark, and the seal itself (step 1) is unchanged.
//
// The protocol is lock-free on the hot path and copy-on-write on the read
// side, and has no goroutine of its own:
//
//  1. Each shard worker, while processing a watermark envelope it was
//     already receiving, notices the horizon entered a new week and, under
//     the roller's one mutex, adds its growth since its previous seal
//     straight into the roller's unpublished panel (next): for the weeks
//     its panel accumulator booked into since then, how much every series
//     grew, plus the growth of its flow counters. That is the panel's 132
//     series times the weeks touched (usually one or two), however many
//     attacks were booked, and happens at most once per boundary, never
//     per packet.
//  2. If that seal advances the minimum sealed week across all shards, the
//     same worker, still holding the mutex, publishes next as a fresh
//     Snapshot: an atomic pointer swap plus subscriber callbacks. Only
//     then does it clone next into the following unpublished panel, so the
//     clone is off this publish's path. It still runs under the mutex,
//     though, so a seal from another shard that arrives during the clone
//     waits for it (and that shard's worker stops draining its queue
//     meanwhile): back-to-back seals, as in a fast replay, can put the
//     previous clone in front of the next publish. Every panel shares one
//     key layout, so that clone is three allocations and one copy of the
//     value block (BenchmarkPanelClone: 54 µs and 432 kB at 400 weeks).
//     Readers of Snapshot never take a lock and never observe a partially
//     applied panel, and the mutex serialises publishes, so sequence
//     numbers rise strictly.
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
	"sync/atomic"
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
	// Stats carries the pipeline counters as of the publish. Until Final,
	// Packets/UnknownPort/Malformed/Late are live readings and Shed and
	// ShedBySensor are zero (their ledgers are only settled at Close).
	Stats Stats
}

// sent is what one shard's seals have added to the roller so far: its
// flow counters, and its panel's value block (timeseries.Panel.Block) as
// of the seal that last covered each week. Only the shard's worker
// touches it.
type sent struct {
	flows  Stats
	values []float64
}

// roller owns rolling emission for one pipeline: the unpublished panel,
// the subscriber list and the sequence counter. Shard workers publish
// through it; it starts no goroutine.
type roller struct {
	in *Ingestor

	// subs is the subscriber list, replaced copy-on-write under subMu,
	// so a publish reads it with one atomic load and no allocation.
	subMu sync.Mutex
	subs  atomic.Pointer[[]func(*Snapshot)]

	// mu guards everything below and serialises publishes. next is the
	// unpublished panel: the last published one plus every seal received
	// since. flows holds the flow counters of every seal received.
	mu      sync.Mutex
	next    *timeseries.Panel
	seq     uint64
	flows   Stats
	through []timeseries.Week
	sealed  []bool
	pubBase timeseries.Week // last published Through
	pubAny  bool
}

// newRoller gives every shard its record of what it has added and
// publishes the initial (unsealed, empty) snapshot so readers always have
// a panel to serve. No shard worker runs yet, so it needs no lock.
func newRoller(in *Ingestor, shards int) *roller {
	r := &roller{
		in:      in,
		next:    newAccumulator(&in.cfg).panel,
		through: make([]timeseries.Week, shards),
		sealed:  make([]bool, shards),
	}
	r.subs.Store(new([]func(*Snapshot)))
	for _, s := range in.shards {
		s.rollSent = sent{values: make([]float64, len(s.acc.panel.Block()))}
	}
	r.publishNext(timeseries.Week{}, false)
	// The initial snapshot is empty: a fresh panel stands in for its clone.
	r.next = newAccumulator(&in.cfg).panel
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
// add the shard's growth since its previous seal into the unpublished
// panel, and publish it when that advances the cross-shard frontier. The
// seal is taken after Advance closed everything expirable, so it holds
// every booking the sealed weeks can claim from this shard.
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
	r.mu.Lock()
	defer r.mu.Unlock()
	attacks := r.addGrowth(s)
	r.through[s.index], r.sealed[s.index] = through, true
	tr := r.in.cfg.Trace
	var sealTC trace.Context
	if tr != nil {
		// Week seals are rare and load-bearing, so they are always on
		// record: parented under the shard's last sampled apply span when
		// one exists, a forced root otherwise.
		sealTC = tr.Child(s.lastTC)
		if !sealTC.Sampled() {
			sealTC = tr.RootAlways()
		}
		tr.Record(trace.NameWeekSeal, s.index, sealTC, s.lastTC.Span,
			sealedAt.UnixNano(), time.Since(sealedAt).Nanoseconds(), attacks)
	}
	frontier, ok := r.frontier()
	if !ok {
		return // some shard has not sealed its first week yet
	}
	if r.pubAny && !r.pubBase.Before(frontier) {
		return // frontier did not advance
	}
	r.pubAny, r.pubBase = true, frontier
	pubStart := time.Now()
	r.publishNext(frontier, true)
	if r.in.m != nil {
		r.in.m.sealLatency.Observe(time.Since(sealedAt))
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
	if tr != nil {
		// Like seals, publishes are always recorded, chained under the
		// seal span that advanced the frontier. The span ends once the
		// subscribers have returned, before the next panel's clone.
		tc := tr.Child(sealTC)
		if !tc.Sampled() {
			tc = tr.RootAlways()
		}
		tr.Record(trace.NameSnapshotPublish, s.index, tc, sealTC.Span,
			pubStart.UnixNano(), time.Since(pubStart).Nanoseconds(), r.seq)
	}
	// Only now, with the subscribers returned, copy the published panel
	// into the one the following seals add into: one copy of its value
	// block (54 µs at 400 weeks in BenchmarkPanelClone). This still holds
	// mu, so a seal arriving meanwhile waits for the copy.
	r.next = r.next.Clone()
}

// addGrowth adds the shard's growth since its previous seal into next —
// for every series, over the weeks booked since then, its current value
// less the value the previous seal covered — and its flow-counter growth
// into flows. It brings s.rollSent up to date, empties the booked-week
// range and returns the in-span attacks booked since the previous seal.
// The caller holds mu.
func (r *roller) addGrowth(s *shard) uint64 {
	a, rec := s.acc, &s.rollSent
	flows := flowsSince(a.stats, rec.flows)
	rec.flows = a.stats
	r.flows.addFlows(flows)
	if a.lo <= a.hi {
		// All three blocks share the layout: series after series, Weeks
		// values each.
		weeks := a.panel.Weeks
		cur, old, next := a.panel.Block(), rec.values, r.next.Block()
		for off := 0; off < len(cur); off += weeks {
			for j := off + a.lo; j <= off+a.hi; j++ {
				next[j] += cur[j] - old[j]
				old[j] = cur[j]
			}
		}
		a.lo, a.hi = weeks, -1
	}
	return uint64(flows.Attacks - flows.OutOfSpan)
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

// publishNext publishes the unpublished panel as it stands. Counters the
// seals cannot know are read live from the pipeline's atomics. The
// published panel is never written again: next must be replaced by a
// copy before the following seal adds into it.
func (r *roller) publishNext(through timeseries.Week, sealedYet bool) {
	snap := &Snapshot{Through: through, Sealed: sealedYet, Panel: r.next, Stats: r.flows}
	snap.Stats.Packets = r.in.packets.Load()
	snap.Stats.UnknownPort = r.in.unknown.Load()
	snap.Stats.Malformed = r.in.malformed.Load()
	snap.Stats.Late = r.in.Late()
	r.publish(snap)
}

// publish stamps the next sequence number, swaps the pipeline's latest
// pointer and notifies subscribers in registration order. Callers hold mu
// (or, in newRoller, run before any shard worker), so publishes are
// serialised.
func (r *roller) publish(snap *Snapshot) {
	r.seq++
	snap.Seq = r.seq
	r.in.latest.Store(snap)
	if r.in.m != nil {
		r.in.m.snapshots.Inc()
	}
	for _, fn := range *r.subs.Load() {
		fn(snap)
	}
}

// finish publishes the Final snapshot cloned from the pipeline's merged
// Result. Every shard worker has exited, so no seal races it.
func (r *roller) finish(res *Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
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
// including the Final one. Callbacks run sequentially, in registration
// order, on the worker of the shard whose seal advanced the frontier
// (Close's goroutine for the Final snapshot) while it holds the publish
// lock, so every shard that seals meanwhile waits for them. fn must be
// O(1) and must not block, and it must not call Ingest, IngestDatagram,
// Source.Advance or Close: each can wait on the very worker running it.
// It may call OnSnapshot and Snapshot. Subscribing is safe while the
// pipeline is running; use Snapshot for the current state at subscribe
// time. It returns ErrNotRolling when the pipeline was not built with
// Config.Rolling.
func (in *Ingestor) OnSnapshot(fn func(*Snapshot)) error {
	if in.roll == nil {
		return ErrNotRolling
	}
	r := in.roll
	r.subMu.Lock()
	subs := *r.subs.Load()
	// The full slice expression makes append copy: a publish may be
	// ranging over the current list.
	subs = append(subs[:len(subs):len(subs)], fn)
	r.subs.Store(&subs)
	r.subMu.Unlock()
	return nil
}
