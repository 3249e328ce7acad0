package ingest

// Pipeline instrumentation. Config.Metrics is nil by default and the whole
// layer costs one nil check when off. When a registry is supplied, the
// per-packet hot path pays at most one uncontended atomic add, amortised
// to 1/BatchSize adds per packet: packets are booked into the shard's own
// cell of the packets ShardedCounter at batch-flush time, under the same
// shard lock that serialises producers (verified against the ≤3% overhead
// bar by BenchmarkIngest1ShardMetrics — on a 1-core host even one extra
// per-packet atomic is a measurable ~3%, which is why the booking is
// per-batch). Everything else is either per-envelope (queue high-water),
// per-watermark (flow-table gauges), per-rare-event (decode errors,
// sheds, late packets) or free until scrape time (GaugeFuncs over atomics
// the pipeline already maintains).

import (
	"strconv"

	"booters/internal/obs"
)

// pipelineMetrics holds the typed instrument handles one Ingestor writes.
type pipelineMetrics struct {
	reg     *obs.Registry
	packets *obs.ShardedCounter
	flows   *obs.ShardedCounter
	late    *obs.Counter

	queueHigh []*obs.Gauge
	openFlows []*obs.Gauge
	heapDepth []*obs.Gauge

	snapshots   *obs.Counter
	sealLatency *obs.Histogram
	freshness   *obs.Histogram
}

// newPipelineMetrics registers the pipeline's instrument families on reg
// and wires the scrape-time gauges to the ingestor's live state.
func newPipelineMetrics(in *Ingestor, reg *obs.Registry) *pipelineMetrics {
	shards := len(in.shards)
	m := &pipelineMetrics{
		reg: reg,
		packets: reg.ShardedCounter("booters_ingest_packets_total",
			"Packets accepted by Ingest, booked at batch flush (per-shard cells, merged at scrape; lags by at most one partial batch per shard, exact after Close).", shards),
		flows: reg.ShardedCounter("booters_ingest_flows_closed_total",
			"Flows closed and fanned out to sinks (per-shard cells).", shards),
		late: reg.Counter("booters_ingest_late_packets_total",
			"Packets rejected by a flow table for arriving behind the expiry horizon."),
		snapshots: reg.Counter("booters_ingest_snapshots_total",
			"Rolling panel snapshots published (including the initial and Final ones)."),
		sealLatency: reg.Histogram("booters_ingest_seal_publish_seconds",
			"Latency from a shard sealing a week boundary to the merged snapshot publishing: from the seal to the subscribers' return, on the sealing shard's worker (the next panel's clone comes after)."),
		freshness: reg.Histogram("booters_freshness_event_to_queryable_seconds",
			"Stream-time freshness at snapshot publish: how far the watermark head had advanced past a sealed week's end when that week became queryable."),
	}
	for i, s := range in.shards {
		label := obs.L("shard", strconv.Itoa(i))
		ch := s.ch
		reg.GaugeFunc("booters_ingest_queue_depth",
			"Shard input queue occupancy in batches, sampled at scrape.",
			func() float64 { return float64(len(ch)) }, label)
		m.queueHigh = append(m.queueHigh, reg.Gauge("booters_ingest_queue_high_water",
			"High-water shard queue occupancy in batches since start.", label))
		m.openFlows = append(m.openFlows, reg.Gauge("booters_ingest_open_flows",
			"Open (unexpired) flows in the shard's flow table.", label))
		m.heapDepth = append(m.heapDepth, reg.Gauge("booters_ingest_expiry_heap_depth",
			"Entries in the shard's expiry heap (0 under the interval-merge table, which has none).", label))
	}
	reg.GaugeFunc("booters_ingest_watermark_head_seconds",
		"Newest packet timestamp observed, as unix seconds (0 before the first packet).",
		func() float64 { return unixSeconds(in.watermark.Load()) })
	reg.GaugeFunc("booters_ingest_watermark_low_seconds",
		"Broadcast low-watermark — the expiry-safe horizon — as unix seconds (0 while unknown).",
		func() float64 {
			low, ok := in.lowWatermark()
			if !ok {
				return 0
			}
			return unixSeconds(low.UnixNano())
		})
	reg.GaugeFunc("booters_ingest_watermark_lag_seconds",
		"Stream-time lag between the observed head and the low-watermark (0 while either is unknown).",
		func() float64 {
			head := in.watermark.Load()
			low, ok := in.lowWatermark()
			if head == 0 || !ok {
				return 0
			}
			return float64(head-low.UnixNano()) / 1e9
		})
	return m
}

// unixSeconds converts unix nanoseconds to float seconds (0 stays 0).
func unixSeconds(ns int64) float64 { return float64(ns) / 1e9 }

// decodeError counts one IngestDatagram rejection. The error paths are
// rare (a scanner hitting an unregistered port, a fuzzed payload), so the
// get-or-create registry lookup per event is fine.
func (m *pipelineMetrics) decodeError(reason string, sensor int) {
	m.reg.Counter("booters_ingest_decode_errors_total",
		"Datagrams rejected at decode, by reason and receiving sensor.",
		obs.L("reason", reason), obs.L("sensor", strconv.Itoa(sensor))).Inc()
}

// shedPackets counts packets dropped by the overload policy against the
// sensor that sent them. Called with the shard lock held, on the shed
// path only.
func (m *pipelineMetrics) shedPackets(policy ShedPolicy, sensor int, n uint64) {
	m.reg.Counter("booters_ingest_shed_packets_total",
		"Packets dropped by the overload policy, by policy and sensor.",
		obs.L("policy", policy.String()), obs.L("sensor", strconv.Itoa(sensor))).Add(n)
}

// tableGauges refreshes the shard's flow-table gauges; called by the
// worker at watermark-mark cadence, after the table has settled.
func (m *pipelineMetrics) tableGauges(s *shard) {
	m.openFlows[s.index].Set(int64(s.agg.OpenFlows()))
	m.heapDepth[s.index].Set(int64(s.agg.ExpiryHeapDepth()))
}

// Late returns the number of late-rejected packets so far, summed across
// shard workers: a live reading, safe during ingest (Close's Stats.Late
// is the settled value).
func (in *Ingestor) Late() uint64 {
	var n uint64
	for _, s := range in.shards {
		n += s.late.Load()
	}
	return n
}

// Metrics returns the registry the pipeline was built with, or nil when
// metrics are disabled.
func (in *Ingestor) Metrics() *obs.Registry {
	if in.m == nil {
		return nil
	}
	return in.m.reg
}
