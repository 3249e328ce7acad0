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
// side:
//
//  1. Each shard worker, while processing a watermark envelope it was
//     already receiving, notices the horizon entered a new week and hands
//     the collector goroutine a week-range delta: for the weeks its panel
//     accumulator booked into since its previous seal, how much every
//     series grew, plus the growth of its flow counters. The delta is the
//     panel's 132 series times the weeks touched (usually one or two),
//     however many attacks were booked, and is sent at most once per
//     boundary, never per packet.
//  2. The collector holds the deltas received since its last publish.
//     Whenever the minimum sealed week across all shards advances, it
//     clones the last published panel, adds the held deltas into the
//     clone and publishes that as a fresh Snapshot: an atomic pointer
//     swap plus subscriber callbacks. Readers of Snapshot never take a
//     lock and never observe a partially applied panel.
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

	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/obs/trace"
	"booters/internal/protocols"
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

// handoff is one shard's week seal as the collector receives it: for the
// weeks [lo, lo+weeks) the shard booked into since its previous seal, how
// much every series of its panel grew over that stretch (delta, series by
// series in seriesOf order, weeks values each), and the growth of its flow
// counters. sealedAt is the wall-clock instant the shard sealed, the start
// of the seal-to-publish latency the metrics histogram tracks.
type handoff struct {
	lo, weeks int
	delta     []float64
	flows     Stats
	shard     int
	through   timeseries.Week
	sealedAt  time.Time
	// tc is the seal span's trace context (zero without a tracer); the
	// publish span it unlocks adopts it as parent.
	tc trace.Context
}

// sent is what one shard's seals have handed the collector so far: its
// flow counters, and every series of its panel (series, in seriesOf
// order) as of the seal that last covered each week (values, series by
// series, Weeks values each). Only the shard's worker touches it.
type sent struct {
	flows  Stats
	series []*timeseries.Series
	values []float64
}

// seriesOf lists every series of a NewPanel panel in one fixed order:
// global, per protocol, then per country followed by its protocol
// breakdown.
func seriesOf(p *timeseries.Panel) []*timeseries.Series {
	out := []*timeseries.Series{p.Global}
	for _, proto := range protocols.All() {
		out = append(out, p.ByProtocol[proto])
	}
	for _, c := range geo.Countries() {
		out = append(out, p.ByCountry[c])
		for _, proto := range protocols.All() {
			out = append(out, p.CountryProtocol[c][proto])
		}
	}
	return out
}

// roller owns rolling emission for one pipeline: the hand-off channel,
// the collector goroutine, the subscriber list and the sequence counter.
type roller struct {
	in   *Ingestor
	ch   chan *handoff
	done chan struct{}

	subMu sync.Mutex
	subs  []func(*Snapshot)

	// Collector-goroutine state (moved to Close's goroutine only after
	// done is closed): last is the last published panel, which is never
	// written again; pending holds the deltas received since it was
	// published, and flows the flow counters of every delta received.
	seq     uint64
	last    *timeseries.Panel
	pending []*handoff
	flows   Stats
	through []timeseries.Week
	sealed  []bool
	pubBase timeseries.Week // last published Through
	pubAny  bool
}

// newRoller gives every shard its record of what it has sent, starts the
// collector and publishes the initial (unsealed, empty) snapshot so
// readers always have a panel to serve.
func newRoller(in *Ingestor, shards int) *roller {
	r := &roller{
		in:      in,
		ch:      make(chan *handoff, shards),
		done:    make(chan struct{}),
		last:    newAccumulator(&in.cfg).panel,
		through: make([]timeseries.Week, shards),
		sealed:  make([]bool, shards),
	}
	for _, s := range in.shards {
		series := seriesOf(s.acc.panel)
		s.rollSent = sent{series: series, values: make([]float64, len(series)*s.acc.panel.Weeks)}
	}
	r.publish(r.snapshot(timeseries.Week{}, false))
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
// hand the collector the shard's growth since its previous seal. The
// hand-off is taken after Advance closed everything expirable, so it holds
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
	h := s.handoff()
	h.shard, h.through, h.sealedAt = s.index, through, sealedAt
	if tr := r.in.cfg.Trace; tr != nil {
		// Week seals are rare and load-bearing, so they are always on
		// record: parented under the shard's last sampled apply span when
		// one exists, a forced root otherwise.
		h.tc = tr.Child(s.lastTC)
		if !h.tc.Sampled() {
			h.tc = tr.RootAlways()
		}
		tr.Record(trace.NameWeekSeal, s.index, h.tc, s.lastTC.Span,
			sealedAt.UnixNano(), time.Since(sealedAt).Nanoseconds(), uint64(h.flows.Attacks-h.flows.OutOfSpan))
	}
	r.ch <- h
}

// handoff builds the shard's seal: the delta of every series over the
// weeks booked since the previous seal, and the flow-counter growth. It
// brings s.rollSent up to date and empties the booked-week range.
func (s *shard) handoff() *handoff {
	a, rec := s.acc, &s.rollSent
	h := &handoff{flows: flowsSince(a.stats, rec.flows)}
	rec.flows = a.stats
	if a.lo > a.hi {
		return h // no week booked since the previous seal
	}
	weeks := a.panel.Weeks
	h.lo, h.weeks = a.lo, a.hi-a.lo+1
	h.delta = make([]float64, len(rec.series)*h.weeks)
	for i, ser := range rec.series {
		cur := ser.Values[a.lo : a.hi+1]
		old := rec.values[i*weeks+a.lo : i*weeks+a.hi+1]
		d := h.delta[i*h.weeks : (i+1)*h.weeks]
		for j, v := range cur {
			d[j], old[j] = v-old[j], v
		}
	}
	a.lo, a.hi = weeks, -1
	return h
}

// collect is the collector goroutine: hold incoming deltas and publish
// a snapshot with them added whenever the cross-shard sealed frontier
// advances.
func (r *roller) collect() {
	defer close(r.done)
	for h := range r.ch {
		recv := time.Now()
		r.pending = append(r.pending, h)
		r.flows.addFlows(h.flows)
		r.through[h.shard], r.sealed[h.shard] = h.through, true
		frontier, ok := r.frontier()
		if !ok {
			continue // some shard has not sealed its first week yet
		}
		if r.pubAny && !r.pubBase.Before(frontier) {
			continue // frontier did not advance
		}
		r.pubAny, r.pubBase = true, frontier
		r.publish(r.snapshot(frontier, true))
		if r.in.m != nil {
			r.in.m.sealLatency.Observe(time.Since(h.sealedAt))
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
			// seal span that advanced the frontier. The span covers the
			// collector's whole turn: cloning, adding the deltas,
			// publishing.
			tc := tr.Child(h.tc)
			if !tc.Sampled() {
				tc = tr.RootAlways()
			}
			tr.Record(trace.NameSnapshotPublish, h.shard, tc, h.tc.Span,
				recv.UnixNano(), time.Since(recv).Nanoseconds(), r.seq)
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

// snapshot builds a fresh Snapshot: a clone of the last published panel
// with the pending deltas added. Counters the deltas cannot know are read
// live from the pipeline's atomics.
func (r *roller) snapshot(through timeseries.Week, sealedYet bool) *Snapshot {
	p := r.last.Clone()
	series := seriesOf(p)
	for _, h := range r.pending {
		for i, ser := range series {
			v := ser.Values[h.lo : h.lo+h.weeks]
			for j, d := range h.delta[i*h.weeks : (i+1)*h.weeks] {
				v[j] += d
			}
		}
	}
	clear(r.pending)
	r.pending, r.last = r.pending[:0], p
	snap := &Snapshot{Through: through, Sealed: sealedYet, Panel: p, Stats: r.flows}
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
