package ingest

import (
	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/timeseries"
)

// Stats counts what the pipeline saw and decided.
type Stats struct {
	// Packets is the number of packets accepted into the flow tables.
	Packets uint64
	// UnknownPort counts datagrams dropped for an unregistered UDP port.
	UnknownPort uint64
	// Malformed counts datagrams dropped by protocol request validation.
	Malformed uint64
	// Late counts packets rejected by the aggregator's staleness rule
	// (honeypot.StaleError): behind the broadcast low-watermark on the
	// order-tolerant path, or more than one quiet gap behind the shard's
	// stream head on the ordered path. Out-of-horizon packets are never
	// silently dropped — they all land here.
	Late uint64
	// Flows is the number of closed flows.
	Flows int
	// Attacks and Scans split the closed flows by the paper's classifier.
	Attacks, Scans int
	// Unattributed counts attack flows whose victim is outside the geo
	// table's address plan.
	Unattributed int
	// OutOfSpan counts attack flows whose first packet falls outside the
	// configured panel span; they are in Attacks but in no weekly series.
	OutOfSpan int
	// Shed counts packets dropped by the load-shedding policy because a
	// shard queue was full (always zero under ShedBlock).
	Shed uint64
	// ShedBySensor splits Shed by the dropped packets' sensor ID — the
	// per-producer fairness ledger: in deployment each sensor capture loop
	// is one producer, so a skewed map means shedding is starving specific
	// producers rather than spreading the loss. Nil when nothing was shed.
	ShedBySensor map[int]uint64
}

// Result is the output of a completed ingestion run: the paper's weekly
// attack panel, incrementally accumulated. Every (country, protocol) pair
// in the address plan is present in the panel, zero-filled when unseen,
// mirroring the generated dataset's shape; conservative multi-attribution
// can push the country series' sum above Global.
type Result struct {
	// Panel is the weekly attack panel over the configured span.
	*timeseries.Panel
	// Stats carries the pipeline counters.
	Stats Stats
}

// accumulator folds closed flows into a shard-local weekly panel; it is
// panelSink's branch type, so shards own one each, accumulation needs no
// locks, and Flush sums them. Of stats it keeps only the flow counters
// (Flows, Attacks, Scans, Unattributed, OutOfSpan).
type accumulator struct {
	tbl   *geo.Table
	panel *timeseries.Panel
	stats Stats
}

// newAccumulator allocates the weekly panel for the configured span.
func newAccumulator(cfg *Config) *accumulator {
	start := timeseries.WeekOf(cfg.Start)
	weeks := timeseries.WeeksBetween(start, timeseries.WeekOf(cfg.End)) + 1
	return &accumulator{tbl: cfg.geo, panel: timeseries.NewPanel(start, weeks)}
}

// Consume books one closed flow: count it, and for attacks credit the
// week of the first packet globally, per protocol, and per attributed
// country. The returned error is always nil.
func (a *accumulator) Consume(f *honeypot.Flow, c honeypot.Classification) error {
	a.stats.Flows++
	if c != honeypot.Attack {
		a.stats.Scans++
		return nil
	}
	a.stats.Attacks++
	// All of the panel's series share one start and span, so the week
	// index is computed once and credited directly instead of re-deriving
	// it per series.
	p := a.panel
	w := p.Global.IndexOfTime(f.First)
	if w < 0 {
		a.stats.OutOfSpan++
		return nil
	}
	p.Global.Values[w]++
	p.ByProtocol[f.Key.Proto].Values[w]++
	countries, ok := a.tbl.Lookup(f.Key.Victim)
	if !ok {
		a.stats.Unattributed++
		return nil
	}
	for _, c := range countries {
		p.ByCountry[c].Values[w]++
		p.CountryProtocol[c][f.Key.Proto].Values[w]++
	}
	return nil
}

// add sums the others' panels and flow counters into a. All accumulators
// of a run come from one Config, so their panels are aligned by
// construction, and addition is order-independent, so a sum over shards
// is deterministic for any shard count.
func (a *accumulator) add(others ...*accumulator) {
	for _, o := range others {
		a.panel.Add(o.panel)
		a.stats.Flows += o.stats.Flows
		a.stats.Attacks += o.stats.Attacks
		a.stats.Scans += o.stats.Scans
		a.stats.Unattributed += o.stats.Unattributed
		a.stats.OutOfSpan += o.stats.OutOfSpan
	}
}

// clone deep-copies the accumulator's panel and counters.
func (a *accumulator) clone() *accumulator {
	return &accumulator{tbl: a.tbl, panel: a.panel.Clone(), stats: a.stats}
}

// Batch is the single-threaded reference implementation: the same packets
// through one aggregator over the merged time-sorted log, producing a
// Result with identical flows, classifications and weekly series to a
// streaming run at any shard count. Config.Sinks are honoured too — each
// sink opens a single branch — so every sink's batch output is the
// reference for its streaming output. Tests pin the streaming pipeline
// against it; small offline jobs can use it directly.
func Batch(cfg Config, packets []honeypot.Packet) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	panel := &panelSink{}
	sinks, err := openSinks(&cfg, 1, panel)
	if err != nil {
		return nil, err
	}
	agg := honeypot.NewAggregator()
	var late uint64
	for _, p := range packets {
		if err := agg.Offer(p); err != nil {
			late++
		}
	}
	var sinkErr error
	for _, f := range agg.Flush() {
		c := honeypot.Classify(f)
		for _, b := range sinks.branches[0] {
			if err := b.Consume(f, c); err != nil && sinkErr == nil {
				sinkErr = err
			}
		}
	}
	if err := sinks.flush(); err != nil && sinkErr == nil {
		sinkErr = err
	}
	res := panel.res
	res.Stats.Packets = uint64(len(packets)) - late
	res.Stats.Late = late
	return res, sinkErr
}
