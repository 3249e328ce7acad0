// Package ingest implements the streaming side of the paper's first
// dataset: a concurrent, sharded pipeline that consumes reflected-UDP
// datagrams continuously, the way a deployed sensor fleet would, instead of
// aggregating a pre-collected packet log in one batch.
//
// Datagrams are decoded against the amplification-protocol registry
// (internal/protocols), sharded by victim address across N workers, grouped
// into flows by each shard's own aggregator using the paper's 15-minute
// quiet-gap rule (honeypot.FlowGap), classified as attack or scan on
// closure, attributed to victim countries (geo.NewTable's address plan),
// and accumulated into the same weekly timeseries.Panel the batch path
// produces. A watermark is broadcast periodically so idle shards expire
// quiet flows without any global lock: with no registered Sources it is
// the maximum packet timestamp observed (ordered producers), and with
// Sources it is the minimum across their promised frontiers — a true
// low-watermark, which is what lets Config.Unordered
// pipelines accept out-of-order delivery (a sensor fleet's interleaved
// sessions, a reordered recording replayed with its spool trailers'
// low-watermark) and still expire flows safely via the order-tolerant
// interval-merge aggregator.
//
// Closed flows fan out to any number of Sinks — the weekly-panel
// accumulator is built in; TopKSink and NDJSONSink ship alongside — via
// per-shard branches, so multi-sink runs add no locks to the per-packet
// hot path. A branch borrows each flow for the length of Consume only:
// the shard recycles it into its flow table afterwards. Overload
// behaviour is configurable: a full shard queue either blocks producers
// (lossless backpressure, the default) or sheds load (drop-newest /
// drop-oldest) with per-sensor drop accounting in Stats.
//
// Because flows are keyed by (victim, protocol) and shards are chosen by
// victim address, every packet of a flow lands on the same shard, so the
// union of the shards' flows is exactly the flow set a single batch
// aggregator computes over the merged log: Batch is the reference
// implementation and the equivalence is tested at every shard count.
package ingest

import (
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/obs"
	"booters/internal/obs/trace"
	"booters/internal/protocols"
	"booters/internal/timeseries"
)

// ErrClosed is returned by Ingest and Close after the ingestor has been
// closed.
var ErrClosed = errors.New("ingest: ingestor closed")

// ErrNotRolling is returned by OnSnapshot when the pipeline was built
// without Config.Rolling and therefore never publishes snapshots.
var ErrNotRolling = errors.New("ingest: pipeline not built with Config.Rolling")

// Datagram is one wire-format UDP datagram as a sensor host captures it:
// receive timestamp, receiving sensor, (spoofed) source address, destination
// port and raw payload. The pipeline decodes the port against the
// amplification-protocol registry and validates the payload before counting
// the packet.
type Datagram struct {
	// Time is the sensor receive timestamp.
	Time time.Time
	// Sensor is the ID of the receiving sensor.
	Sensor int
	// Victim is the datagram's source address — under spoofing, the victim
	// the reflected traffic is aimed at.
	Victim netip.Addr
	// Port is the UDP destination port, which selects the protocol.
	Port int
	// Payload is the raw request payload.
	Payload []byte
}

// ShedPolicy selects what a producer does when its destination shard's
// queue is full. The default, ShedBlock, is lossless backpressure; the two
// drop policies trade completeness for bounded producer latency, with every
// dropped packet accounted per sensor in Stats.
type ShedPolicy int

const (
	// ShedBlock makes producers wait for queue space: nothing is ever
	// dropped and ingestion slows to the consumer's pace.
	ShedBlock ShedPolicy = iota
	// ShedDropNewest drops the incoming batch when the queue is full,
	// preserving the oldest buffered data (favours continuity of history).
	ShedDropNewest
	// ShedDropOldest evicts the queue's oldest batch to admit the new one,
	// preserving the freshest data (favours current visibility).
	ShedDropOldest
)

// String names the policy as booteringest's -shed flag spells it.
func (p ShedPolicy) String() string {
	switch p {
	case ShedBlock:
		return "block"
	case ShedDropNewest:
		return "drop-newest"
	case ShedDropOldest:
		return "drop-oldest"
	}
	return fmt.Sprintf("ShedPolicy(%d)", int(p))
}

// ParseShedPolicy parses the flag spelling produced by String.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "block":
		return ShedBlock, nil
	case "drop-newest":
		return ShedDropNewest, nil
	case "drop-oldest":
		return ShedDropOldest, nil
	}
	return 0, fmt.Errorf("ingest: unknown shed policy %q (want block, drop-newest or drop-oldest)", s)
}

// Config tunes an Ingestor.
type Config struct {
	// Shards is the number of parallel flow-table workers; <= 0 means
	// GOMAXPROCS.
	Shards int
	// Start and End bound the weekly panel the pipeline accumulates into
	// (inclusive of the weeks containing both instants). Required.
	Start, End time.Time
	// BatchSize is the number of packets buffered per shard before a
	// channel hand-off; <= 0 means 256.
	BatchSize int
	// QueueDepth is the per-shard channel depth in batches; <= 0 means 16.
	// A full queue blocks producers: the pipeline's backpressure.
	QueueDepth int
	// WatermarkEvery broadcasts the watermark to all shards after this many
	// ingested packets; <= 0 means 8192.
	WatermarkEvery int
	// Unordered makes every shard use the order-tolerant interval-merge
	// aggregator (honeypot.MergeAggregator) instead of the ordered fold,
	// so producers may deliver packets in any order that stays at or
	// ahead of the broadcast low-watermark. Register a Source per
	// producer (a spool replay, a live sensor) and Advance it as the
	// producer's own frontier moves: the pipeline broadcasts the minimum
	// across sources, which is what lets idle shards expire flows safely
	// under out-of-order input. booters.ReplaySpoolWindow and the wire
	// collector register theirs; a spool replay advances from
	// spool.ReplayOptions.OnWatermark. With no sources registered, an
	// unordered pipeline never expires flows mid-run — everything closes
	// at Close — so open-flow memory is bounded by the stream's victim
	// spread, not by traffic recency.
	Unordered bool
	// Rolling publishes an immutable panel Snapshot each time the
	// broadcast low-watermark carries the expiry horizon across a week
	// boundary, and a Final one at Close — the live-serving feed (see
	// rolling.go and internal/serve). Snapshots are read via Snapshot
	// and OnSnapshot; Close's Result is unaffected.
	Rolling bool
	// Shed is the overload policy for full shard queues; the zero value is
	// ShedBlock (lossless backpressure).
	Shed ShedPolicy
	// Sinks are additional consumers of closed flows, fanned out alongside
	// the built-in weekly-panel sink. Each must be a fresh instance.
	Sinks []Sink
	// Metrics, when non-nil, registers the pipeline's instrument families
	// (see docs/METRICS.md) on the given registry and keeps them live.
	// nil disables instrumentation entirely; when enabled, the per-packet
	// cost is one uncontended atomic add into the shard's own counter
	// cell (see internal/obs and metrics.go).
	Metrics *obs.Registry
	// Trace, when non-nil, records sampled spans — shard enqueue,
	// flow-table apply, watermark broadcast, week seal, snapshot publish
	// — into the tracer's flight recorder (see internal/obs/trace and
	// docs/TRACING.md). nil disables tracing entirely; the hot path then
	// pays one nil check per batch flush, never per packet. Sampling
	// decisions happen per flushed batch, or are inherited from a
	// producer-supplied parent (see SetTraceParent).
	Trace *trace.Tracer

	// geo attributes victims to countries; withDefaults fills it, and the
	// panel and top-K sinks read it.
	geo *geo.Table
	// testBeforeEnvelope, when set by tests, runs on a shard worker before
	// each envelope is processed — the hook slow-consumer tests use to park
	// workers deterministically.
	testBeforeEnvelope func()
}

// withDefaults validates cfg and fills zero fields.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Start.IsZero() || cfg.End.IsZero() {
		return cfg, errors.New("ingest: Config.Start and Config.End are required")
	}
	if cfg.End.Before(cfg.Start) {
		return cfg, fmt.Errorf("ingest: span end %v precedes start %v", cfg.End, cfg.Start)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	cfg.geo = geo.NewTable()
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.WatermarkEvery <= 0 {
		cfg.WatermarkEvery = 8192
	}
	if cfg.Shed < ShedBlock || cfg.Shed > ShedDropOldest {
		return cfg, fmt.Errorf("ingest: invalid shed policy %v", cfg.Shed)
	}
	return cfg, nil
}

// Ingestor is the running pipeline. Ingest and IngestDatagram are safe for
// concurrent use by multiple producer goroutines; Close stops the shards
// and returns the merged Result.
type Ingestor struct {
	cfg    Config
	shards []*shard
	panel  *panelSink
	sinks  *sinkSet
	roll   *roller
	m      *pipelineMetrics
	latest atomic.Pointer[Snapshot]
	wg     sync.WaitGroup
	bufs   bufPool
	closed atomic.Bool

	srcMu   sync.Mutex
	sources []*Source

	packets     atomic.Uint64
	unknown     atomic.Uint64
	malformed   atomic.Uint64
	watermark   atomic.Int64 // max packet time flushed to shards, unix nanos
	flowsClosed atomic.Int64

	// traceParent is the newest producer-supplied trace context
	// (SetTraceParent), adopted as the parent of subsequent batch
	// flushes — last-writer-wins, see SetTraceParent.
	traceParent atomic.Pointer[trace.Context]
}

// flowTable is the per-shard aggregator surface, satisfied by both the
// ordered honeypot.Aggregator and the order-tolerant
// honeypot.MergeAggregator; Config.Unordered picks which one each shard
// owns.
type flowTable interface {
	Offer(honeypot.Packet) error
	Advance(time.Time)
	Completed() []*honeypot.Flow
	Flush() []*honeypot.Flow
	Recycle(*honeypot.Flow)
	OpenFlows() int
	ExpiryHeapDepth() int
}

// envelope is one shard-channel message: either a packet batch or a
// watermark advance. A sampled batch additionally carries its trace
// context — tc is the queue span the worker closes at dequeue,
// parentSpan its upstream parent (a wire batch, when one supplied it)
// and enqNs the flush instant the queue span starts at.
type envelope struct {
	batch      []honeypot.Packet
	mark       time.Time
	tc         trace.Context
	parentSpan uint64
	enqNs      int64
}

// shard is one worker: a private flow table plus its input queue. Only the
// shard's goroutine touches agg, branches and sinkErr; producers touch
// mu/pending/ch and the shed ledger (which the lock also guards).
type shard struct {
	mu      sync.Mutex
	pending []honeypot.Packet
	closed  bool
	ch      chan envelope

	// shed ledger, guarded by mu (written only by producers on the drop
	// path, read by Close after the shard is sealed).
	shed         uint64
	shedBySensor map[int]uint64

	// maxTime is the newest packet timestamp appended to pending, guarded
	// by mu; flushLocked publishes it to the global watermark, keeping the
	// per-packet path free of the CAS.
	maxTime int64

	agg      flowTable
	branches []SinkBranch
	sinkErr  error
	// late counts packets the flow table rejected as behind the horizon.
	// Written only by the shard worker, but atomic so /v1/status and the
	// progress logger can read it live (see Ingestor.Late).
	late atomic.Uint64

	// Rolling-emission state, touched only by the shard's worker: the
	// shard's own panel accumulator (for boundary clones) and the last
	// week it sealed.
	index       int
	acc         *accumulator
	rollSealed  bool
	rollThrough timeseries.Week

	// lastTC is the most recent sampled apply span on this shard,
	// touched only by the worker; week seals adopt it as their parent so
	// a trace reaches from a sensor batch to the snapshot it unlocked.
	lastTC trace.Context
}

// New starts an ingestor with cfg.Shards workers.
func New(cfg Config) (*Ingestor, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	in := &Ingestor{cfg: cfg, panel: &panelSink{}}
	in.sinks, err = openSinks(&in.cfg, cfg.Shards, in.panel)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Shards; i++ {
		var agg flowTable
		if cfg.Unordered {
			agg = honeypot.NewMergeAggregator()
		} else {
			agg = honeypot.NewAggregator()
		}
		s := &shard{
			ch:       make(chan envelope, cfg.QueueDepth),
			agg:      agg,
			branches: in.sinks.branches[i],
			index:    i,
			acc:      in.panel.branches[i],
		}
		in.shards = append(in.shards, s)
	}
	if cfg.Metrics != nil {
		in.m = newPipelineMetrics(in, cfg.Metrics)
	}
	if cfg.Rolling {
		in.roll = newRoller(in, cfg.Shards)
	}
	for _, s := range in.shards {
		in.wg.Add(1)
		go in.run(s)
	}
	return in, nil
}

// run is a shard worker: drain batches into the flow table, classify each
// closed flow once and fan it out to every sink branch the shard owns, and
// flush everything at shutdown.
func (in *Ingestor) run(s *shard) {
	defer in.wg.Done()
	drain := func(flows []*honeypot.Flow) {
		for _, f := range flows {
			c := honeypot.Classify(f)
			for _, b := range s.branches {
				if err := b.Consume(f, c); err != nil && s.sinkErr == nil {
					s.sinkErr = err
				}
			}
			// Every branch is done with the flow; recycle it into the
			// shard's flow table.
			s.agg.Recycle(f)
		}
		if len(flows) > 0 {
			in.flowsClosed.Add(int64(len(flows)))
			if in.m != nil {
				in.m.flows.Add(s.index, uint64(len(flows)))
			}
		}
	}
	for env := range s.ch {
		if in.cfg.testBeforeEnvelope != nil {
			in.cfg.testBeforeEnvelope()
		}
		if !env.mark.IsZero() {
			s.agg.Advance(env.mark)
			drain(s.agg.Completed())
			if in.m != nil {
				in.m.tableGauges(s)
			}
			if in.roll != nil {
				in.roll.maybeSeal(s, env.mark)
			}
			continue
		}
		// A sampled batch closes its queue span at dequeue and opens an
		// apply span around the flow-table work; both record into the
		// shard's own recorder lane (scrape-time merge, no locks).
		var applyTC trace.Context
		var applyStart int64
		if env.tc.Sampled() {
			applyStart = time.Now().UnixNano()
			in.cfg.Trace.Record(trace.NameIngestEnqueue, s.index, env.tc, env.parentSpan,
				env.enqNs, applyStart-env.enqNs, uint64(len(env.batch)))
			applyTC = in.cfg.Trace.Child(env.tc)
		}
		for _, p := range env.batch {
			if err := s.agg.Offer(p); err != nil {
				s.late.Add(1)
				if in.m != nil {
					in.m.late.Inc()
				}
			}
		}
		drain(s.agg.Completed())
		if applyTC.Sampled() {
			in.cfg.Trace.Record(trace.NameIngestApply, s.index, applyTC, env.tc.Span,
				applyStart, time.Now().UnixNano()-applyStart, uint64(len(env.batch)))
			s.lastTC = applyTC
		}
		// Flow-table gauges refresh on the mark path above, not here:
		// watermark cadence is fresh enough for scrape-time sampling and
		// keeps the batch path free of producer/worker line sharing.
		in.bufs.put(env.batch)
	}
	drain(s.agg.Flush())
}

// FlowsClosed returns the number of flows closed so far, a live progress
// metric safe to read while producers are running.
func (in *Ingestor) FlowsClosed() int64 { return in.flowsClosed.Load() }

// IngestDatagram decodes one wire-format datagram and feeds it to the
// pipeline. Datagrams on unregistered ports or with payloads that fail the
// protocol's request validation are counted and dropped; the returned error
// reports why (producers typically log and continue).
func (in *Ingestor) IngestDatagram(d Datagram) error {
	proto, ok := protocols.ByPort(d.Port)
	if !ok {
		in.unknown.Add(1)
		if in.m != nil {
			in.m.decodeError("unknown_port", d.Sensor)
		}
		return fmt.Errorf("ingest: no amplification protocol on port %d", d.Port)
	}
	if err := proto.ValidateRequest(d.Payload); err != nil {
		in.malformed.Add(1)
		if in.m != nil {
			in.m.decodeError("malformed", d.Sensor)
		}
		return fmt.Errorf("ingest: %v request: %w", proto, err)
	}
	return in.Ingest(honeypot.Packet{
		Time:   d.Time,
		Victim: d.Victim,
		Proto:  proto,
		Sensor: d.Sensor,
		Size:   len(d.Payload),
	})
}

// Ingest feeds one already-decoded packet to the pipeline, blocking when
// the destination shard's queue is full (backpressure).
func (in *Ingestor) Ingest(p honeypot.Packet) error {
	if in.closed.Load() {
		return ErrClosed
	}
	idx := shardFor(p.Victim, len(in.shards))
	s := in.shards[idx]
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.pending == nil {
		s.pending = in.bufs.get(in.cfg.BatchSize)
	}
	s.pending = append(s.pending, p)
	if n := p.Time.UnixNano(); n > s.maxTime {
		s.maxTime = n
	}
	// Count before unlocking: Close flushes under this lock, so a packet it
	// hands to a worker is always already in the packet count. The same
	// counter paces the watermark broadcast, so the hot path pays exactly
	// one atomic add per packet.
	n := in.packets.Add(1)
	if len(s.pending) >= in.cfg.BatchSize {
		in.flushLocked(s)
	}
	s.mu.Unlock()
	if n%uint64(in.cfg.WatermarkEvery) == 0 {
		in.broadcastWatermark()
	}
	return nil
}

// Feed ingests packets in slice order — re-encoded as wire-format
// datagrams through the protocol decode path when wire is set, decode
// drops counted in Stats — and stops at the first error. A positive lag
// declares the slice a live out-of-order feed whose displacement is
// bounded by lag: Feed registers a low-watermark source and advances it
// to the stream head minus lag every 1024 packets, which is how an
// order-tolerant pipeline expires flows mid-stream.
func (in *Ingestor) Feed(packets []honeypot.Packet, wire bool, lag time.Duration) error {
	var src *Source
	if lag > 0 {
		src = in.RegisterSource()
		defer src.Close()
	}
	var head time.Time
	var dgrams []Datagram
	if wire {
		dgrams = Datagrams(packets)
	}
	for i, p := range packets {
		var err error
		if wire {
			if err = in.IngestDatagram(dgrams[i]); !errors.Is(err, ErrClosed) {
				err = nil
			}
		} else {
			err = in.Ingest(p)
		}
		if err != nil {
			return err
		}
		if src == nil {
			continue
		}
		if p.Time.After(head) {
			head = p.Time
		}
		// Advance in strides to keep the per-packet cost at a comparison.
		if i&1023 == 1023 {
			src.Advance(head.Add(-lag))
		}
	}
	return nil
}

// observe raises the watermark to n (unix nanos) if it is the newest
// timestamp flushed so far.
func (in *Ingestor) observe(n int64) {
	for {
		old := in.watermark.Load()
		if n <= old || in.watermark.CompareAndSwap(old, n) {
			return
		}
	}
}

// Source is one registered time-ordered producer — a spool segment
// reader, a live sensor capture loop — feeding a pipeline whose other
// producers may be elsewhere in stream time. Advancing a source promises
// that every packet it delivers afterwards is stamped at or after the
// advanced-to instant; the pipeline broadcasts the minimum across all
// open sources as its low-watermark, the only instant at which flows can
// safely expire when delivery is not globally ordered. Close a source
// when its stream ends so it stops holding the watermark back.
type Source struct {
	in     *Ingestor
	mark   atomic.Int64
	closed atomic.Bool
}

// RegisterSource adds one producer to the pipeline's low-watermark set.
// A fresh source holds the watermark at minus infinity (no flow expiry)
// until its first Advance. Safe for concurrent use with Ingest and other
// registrations.
func (in *Ingestor) RegisterSource() *Source {
	s := &Source{in: in}
	s.mark.Store(sourceUnset)
	in.srcMu.Lock()
	in.sources = append(in.sources, s)
	in.srcMu.Unlock()
	return s
}

// sourceUnset marks a source that has not advanced yet; it pins the
// low-watermark until the source either advances or closes.
const sourceUnset = int64(-1 << 63)

// Advance promises that every packet this source delivers from now on is
// stamped at or after t. Only the producer that owns the source may call
// it, and only after the Ingest calls for everything earlier than t have
// returned. Rewinding (an earlier t) is ignored.
func (s *Source) Advance(t time.Time) {
	n := t.UnixNano()
	for {
		old := s.mark.Load()
		if n <= old || s.mark.CompareAndSwap(old, n) {
			return
		}
	}
}

// Close removes the source from the low-watermark set: a finished stream
// constrains nothing. Closing twice is a no-op.
func (s *Source) Close() {
	if s.closed.Swap(true) {
		return
	}
	in := s.in
	in.srcMu.Lock()
	for i, other := range in.sources {
		if other == s {
			in.sources = append(in.sources[:i], in.sources[i+1:]...)
			break
		}
	}
	in.srcMu.Unlock()
}

// lowWatermark returns the instant that is safely behind every packet
// still to come, and whether one is known. With registered sources it is
// the minimum across their promises; with none it falls back to the
// maximum packet time flushed to shards — correct for ordered producers, which is the
// only mode that runs sourceless — except under Unordered, where no
// promise exists and flows must wait for Close.
func (in *Ingestor) lowWatermark() (time.Time, bool) {
	in.srcMu.Lock()
	defer in.srcMu.Unlock()
	if len(in.sources) == 0 {
		if in.cfg.Unordered {
			return time.Time{}, false
		}
		n := in.watermark.Load()
		if n == 0 {
			return time.Time{}, false
		}
		return time.Unix(0, n).UTC(), true
	}
	low := int64(1<<63 - 1)
	for _, s := range in.sources {
		if m := s.mark.Load(); m < low {
			low = m
		}
	}
	if low == sourceUnset {
		return time.Time{}, false
	}
	return time.Unix(0, low).UTC(), true
}

// broadcastWatermark flushes every shard's pending buffer and enqueues a
// watermark advance behind it, so shards that stopped receiving packets
// still expire their quiet flows. The mark is the multi-source
// low-watermark (see lowWatermark); when none is known yet the flush
// still happens but no mark is sent. Under a drop policy a full queue
// sheds the mark too — marks are monotonic and periodic, so a later one
// catches the shard up.
func (in *Ingestor) broadcastWatermark() {
	tc := in.cfg.Trace.Root() // nil-safe; zero when unsampled
	var t0 int64
	if tc.Sampled() {
		t0 = time.Now().UnixNano()
	}
	// Flush every shard first: flushing publishes each shard's newest
	// pending timestamp to the watermark, so the sourceless fallback mark
	// below reflects every packet handed to a worker.
	for _, s := range in.shards {
		s.mu.Lock()
		if !s.closed {
			in.flushLocked(s)
		}
		s.mu.Unlock()
	}
	mark, ok := in.lowWatermark()
	if ok {
		for _, s := range in.shards {
			s.mu.Lock()
			if !s.closed {
				// Any batch a producer appended between the flush above and
				// this send carries timestamps at or after the mark (ordered
				// mode) or is covered by a source promise, so enqueueing the
				// mark behind the flush keeps it a valid lower bound.
				in.flushLocked(s)
				in.send(s, envelope{mark: mark})
			}
			s.mu.Unlock()
		}
	}
	if tc.Sampled() {
		in.cfg.Trace.Record(trace.NameWatermark, 0, tc, 0,
			t0, time.Now().UnixNano()-t0, uint64(len(in.shards)))
	}
}

// flushLocked hands the pending buffer to the shard worker, applying the
// shed policy. The enqueue happens under the shard lock so batches from
// concurrent producers cannot reorder on the queue.
func (in *Ingestor) flushLocked(s *shard) {
	if len(s.pending) == 0 {
		return
	}
	// Publish the shard's newest timestamp once per batch; the watermark
	// therefore tracks packets handed to workers, which only makes it a
	// more conservative (never a premature) lower bound.
	if s.maxTime > in.watermark.Load() {
		in.observe(s.maxTime)
	}
	env := envelope{batch: s.pending}
	if tr := in.cfg.Trace; tr != nil {
		// Sampling happens here, per flushed batch, never per packet. A
		// producer-supplied parent (a traced wire batch) pre-decides it;
		// otherwise the tracer makes its own decision.
		var parent trace.Context
		if p := in.traceParent.Load(); p != nil {
			parent = *p
		}
		if parent.Sampled() {
			env.tc, env.parentSpan = tr.Child(parent), parent.Span
		} else {
			env.tc = tr.Root()
		}
		if env.tc.Sampled() {
			env.enqNs = time.Now().UnixNano()
		}
	}
	s.pending = nil
	in.send(s, env)
}

// SetTraceParent adopts tc as the parent of subsequent batch flushes,
// so a traced producer batch (a wire frame the collector decoded)
// parents the shard enqueue/apply spans its packets land in. The
// association is last-writer-wins and deliberately loose: a flush may
// mix packets from several producer batches and is attributed to the
// newest one — exact per-packet attribution would put a write on the
// per-packet hot path. Passing an unsampled Context detaches flushes
// from the previous parent.
func (in *Ingestor) SetTraceParent(tc trace.Context) {
	if in.cfg.Trace == nil {
		return
	}
	in.traceParent.Store(&tc)
}

// Trace returns the tracer the pipeline was built with, or nil when
// tracing is disabled.
func (in *Ingestor) Trace() *trace.Tracer { return in.cfg.Trace }

// Head returns the newest packet timestamp flushed to shards, or the
// zero time before the first flush — the live stream-time head the
// freshness figures are measured against.
func (in *Ingestor) Head() time.Time {
	n := in.watermark.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

// send enqueues one envelope on the shard's queue under the configured
// overload policy. It runs with s.mu held, so per-shard sends (and the
// shed ledger) are serialised; the worker drains concurrently.
func (in *Ingestor) send(s *shard, env envelope) {
	if in.m != nil {
		// The per-packet metrics cost, amortised: one add into this
		// shard's own counter cell per flushed batch (send runs with
		// s.mu held, so the cell is uncontended). The counter lags the
		// internal ledger by at most one partial batch per shard while
		// producers run and is exact after Close; packets counted here
		// may still be shed — the shed counter books those separately.
		if n := len(env.batch); n > 0 {
			in.m.packets.Add(s.index, uint64(n))
		}
		// High-water occupancy as producers see it at enqueue time (the
		// worker may drain concurrently, so this is a lower bound on peaks).
		in.m.queueHigh[s.index].SetMax(int64(len(s.ch) + 1))
	}
	switch in.cfg.Shed {
	case ShedBlock:
		s.ch <- env
	case ShedDropNewest:
		select {
		case s.ch <- env:
		default:
			in.drop(s, env)
		}
	case ShedDropOldest:
		if env.batch == nil {
			// A watermark is not worth evicting buffered data for: it
			// carries no packets and the next broadcast replaces it.
			select {
			case s.ch <- env:
			default:
			}
			return
		}
		for {
			select {
			case s.ch <- env:
				return
			default:
			}
			// Queue full: evict its oldest envelope to make room. The
			// worker may drain it first, in which case the next send
			// attempt succeeds.
			select {
			case old := <-s.ch:
				in.drop(s, old)
			default:
			}
		}
	}
}

// drop sheds one envelope: batch packets are counted against their sensors
// in the shard's fairness ledger and the buffer is recycled; watermark
// envelopes carry no data and vanish silently.
func (in *Ingestor) drop(s *shard, env envelope) {
	if env.batch == nil {
		return
	}
	if s.shedBySensor == nil {
		s.shedBySensor = make(map[int]uint64)
	}
	tally := make(map[int]uint64)
	for _, p := range env.batch {
		s.shedBySensor[p.Sensor]++
		tally[p.Sensor]++
	}
	s.shed += uint64(len(env.batch))
	if in.m != nil {
		for sensor, n := range tally {
			in.m.shedPackets(in.cfg.Shed, sensor, n)
		}
	}
	in.bufs.put(env.batch)
}

// Close drains the pipeline — flushes pending buffers, closes every open
// flow, flushes every sink — and returns the merged result. The ingestor
// cannot be reused. If a sink failed, Close reports the first error but
// still returns the Result, so the panel survives an export failure.
func (in *Ingestor) Close() (*Result, error) {
	if in.closed.Swap(true) {
		return nil, ErrClosed
	}
	// The closed flag is re-checked under each shard's lock: a producer
	// that passed the atomic gate either finishes its enqueue before the
	// flush below or observes s.closed — it can never send on a closed
	// channel.
	for _, s := range in.shards {
		s.mu.Lock()
		in.flushLocked(s)
		s.closed = true
		close(s.ch)
		s.mu.Unlock()
	}
	in.wg.Wait()

	var late, shed uint64
	var shedBySensor map[int]uint64
	var sinkErr error
	for _, s := range in.shards {
		late += s.late.Load()
		shed += s.shed
		for sensor, n := range s.shedBySensor {
			if shedBySensor == nil {
				shedBySensor = make(map[int]uint64)
			}
			shedBySensor[sensor] += n
		}
		if s.sinkErr != nil && sinkErr == nil {
			sinkErr = s.sinkErr
		}
	}
	if err := in.sinks.flush(); err != nil && sinkErr == nil {
		sinkErr = err
	}
	res := in.panel.res
	res.Stats.Packets = in.packets.Load() - late - shed
	res.Stats.UnknownPort = in.unknown.Load()
	res.Stats.Malformed = in.malformed.Load()
	res.Stats.Late = late
	res.Stats.Shed = shed
	res.Stats.ShedBySensor = shedBySensor
	if in.roll != nil {
		in.roll.finish(res)
	}
	return res, sinkErr
}

// Shards returns the worker count (for reporting).
func (in *Ingestor) Shards() int { return len(in.shards) }

// Unordered reports whether the pipeline was built with order-tolerant
// flow tables (Config.Unordered) and therefore accepts out-of-order
// delivery at or ahead of the source low-watermark.
func (in *Ingestor) Unordered() bool { return in.cfg.Unordered }

// shardFor maps a victim address to a shard with FNV-1a over the 16-byte
// form, keeping every flow of a victim on one worker.
func shardFor(addr netip.Addr, n int) int {
	if n == 1 {
		return 0
	}
	b := addr.As16()
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// bufPool recycles packet batches between producers and shard workers.
type bufPool struct{ p sync.Pool }

func (b *bufPool) get(capHint int) []honeypot.Packet {
	if v := b.p.Get(); v != nil {
		return (*v.(*[]honeypot.Packet))[:0]
	}
	return make([]honeypot.Packet, 0, capHint)
}

func (b *bufPool) put(s []honeypot.Packet) { b.p.Put(&s) }
