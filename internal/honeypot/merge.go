package honeypot

import (
	"sort"
	"time"
)

// MergeAggregator groups packets into flows accepting any arrival order,
// as long as no packet falls behind the aggregator's low-watermark (the
// disorder horizon). It computes exactly the partition the paper's rule
// defines on the time-sorted stream — packets to one (victim, protocol)
// pair belong to one flow iff no quiet gap of at least 15 minutes
// separates them — but does so by interval merging instead of an ordered
// fold: each open flow is a time interval [First, Last] carrying its
// counts, a packet lands in any interval within one gap of it (extending
// it), bridges and coalesces two intervals when it closes the space
// between them, or opens a new interval of its own.
//
// Because the final partition depends only on the packet multiset, any
// delivery order that respects the watermark yields byte-identical flows
// to an Aggregator fed the sorted stream — the property that lets a
// pipeline take input that is not time-sorted: a sensor fleet's
// interleaved wire sessions, or a reordered recording replayed in
// recorded order with its segment trailers' low-watermark (see
// internal/spool and ARCHITECTURE.md).
//
// Flow closure is driven by the watermark, not by arrival order: Advance
// promises that no later packet will carry an earlier timestamp, so every
// interval whose Last is at least one gap behind the watermark can never
// be extended or bridged again and is completed. Packets behind the
// watermark are rejected with a StaleError, the same staleness rule the
// ordered Aggregator applies against its stream head.
type MergeAggregator struct {
	open      map[FlowKey][]*Flow // disjoint intervals, ascending First (and Last)
	completed []*Flow
	watermark time.Time
	openCount int
	free      flowFreeList
}

// Recycle hands a consumed flow back for reuse by a later Offer, under
// the same single-goroutine rule as Aggregator.Recycle.
func (a *MergeAggregator) Recycle(f *Flow) { a.free.put(f) }

// NewMergeAggregator returns an empty order-tolerant aggregator using the
// paper's 15-minute quiet gap.
func NewMergeAggregator() *MergeAggregator {
	return &MergeAggregator{open: make(map[FlowKey][]*Flow)}
}

// Watermark returns the low-watermark last promised via Advance — the
// oldest timestamp Offer still accepts. It is the zero time until the
// first Advance: a fresh aggregator accepts any order.
func (a *MergeAggregator) Watermark() time.Time { return a.watermark }

// Offer adds one packet, merging it into the interval structure of its
// flow key. Packets behind the watermark are rejected with a StaleError;
// everything else is accepted regardless of arrival order.
func (a *MergeAggregator) Offer(p Packet) error {
	if !a.watermark.IsZero() && p.Time.Before(a.watermark) {
		return &StaleError{PacketTime: p.Time, Watermark: a.watermark}
	}
	key := FlowKey{Victim: p.Victim, Proto: p.Proto}
	ivs := a.open[key]
	// First interval starting strictly after the packet; the packet can
	// only touch its left neighbour (idx-1) or this one.
	idx := sort.Search(len(ivs), func(i int) bool { return ivs[i].First.After(p.Time) })
	switch {
	case idx > 0 && p.Time.Sub(ivs[idx-1].Last) < FlowGap:
		// Lands in (or within one gap after) the left neighbour.
		f := ivs[idx-1]
		absorb(f, p)
		if idx < len(ivs) && ivs[idx].First.Sub(f.Last) < FlowGap {
			// The extension closed the space to the right neighbour:
			// coalesce the two intervals into one flow and recycle the
			// absorbed one.
			absorbed := ivs[idx]
			coalesce(f, absorbed)
			a.open[key] = append(ivs[:idx], ivs[idx+1:]...)
			a.openCount--
			a.free.put(absorbed)
		}
	case idx < len(ivs) && ivs[idx].First.Sub(p.Time) < FlowGap:
		// Within one gap before the right neighbour: extend it downward.
		// No left coalesce is possible here: the first case not matching
		// means the packet is at least one gap after the left
		// neighbour's Last, and the extended interval's First is exactly
		// the packet time, so the separation invariant holds.
		absorb(ivs[idx], p)
	default:
		// More than one gap from every neighbour: a new interval.
		f := a.free.take()
		f.Key = key
		f.First = p.Time
		f.Last = p.Time
		f.PacketsBySensor[p.Sensor] = 1
		f.TotalPackets = 1
		f.TotalBytes = p.Size
		ivs = append(ivs, nil)
		copy(ivs[idx+1:], ivs[idx:])
		ivs[idx] = f
		a.open[key] = ivs
		a.openCount++
	}
	return nil
}

// absorb books one packet into an existing interval, widening it as
// needed.
func absorb(f *Flow, p Packet) {
	if p.Time.Before(f.First) {
		f.First = p.Time
	}
	if p.Time.After(f.Last) {
		f.Last = p.Time
	}
	f.PacketsBySensor[p.Sensor]++
	f.TotalPackets++
	f.TotalBytes += p.Size
}

// coalesce merges interval b (the later one) into a (the earlier one); b
// is discarded by the caller.
func coalesce(a, b *Flow) {
	if b.Last.After(a.Last) {
		a.Last = b.Last
	}
	for sensor, n := range b.PacketsBySensor {
		a.PacketsBySensor[sensor] += n
	}
	a.TotalPackets += b.TotalPackets
	a.TotalBytes += b.TotalBytes
}

// Advance raises the low-watermark to now — a promise that no packet
// offered afterwards carries an earlier timestamp — and completes every
// interval at least one quiet gap behind it, which no permitted future
// packet can extend or bridge. A watermark earlier than the current one
// is ignored: the promise only tightens.
func (a *MergeAggregator) Advance(now time.Time) {
	if !now.After(a.watermark) {
		return
	}
	a.watermark = now
	for key, ivs := range a.open {
		// Intervals are disjoint and separated by at least one gap, so
		// both First and Last ascend: closable intervals are a prefix.
		n := 0
		for n < len(ivs) && a.watermark.Sub(ivs[n].Last) >= FlowGap {
			n++
		}
		if n == 0 {
			continue
		}
		a.completed = append(a.completed, ivs[:n]...)
		a.openCount -= n
		if n == len(ivs) {
			delete(a.open, key)
			continue
		}
		rest := copy(ivs, ivs[n:])
		a.open[key] = ivs[:rest]
	}
}

// Flush closes all remaining open flows and returns every completed flow
// in first-packet order. The aggregator is reset; the watermark is
// retained.
func (a *MergeAggregator) Flush() []*Flow {
	for key, ivs := range a.open {
		a.completed = append(a.completed, ivs...)
		delete(a.open, key)
	}
	a.openCount = 0
	out := a.completed
	a.completed = nil
	sortFlows(out)
	return out
}

// Completed returns (and drains) the flows closed so far, in first-packet
// order, leaving open intervals in place.
func (a *MergeAggregator) Completed() []*Flow {
	out := a.completed
	a.completed = nil
	sortFlows(out)
	return out
}

// OpenFlows returns the number of currently open intervals.
func (a *MergeAggregator) OpenFlows() int { return a.openCount }

// ExpiryHeapDepth returns 0: the interval-merge table expires by scanning
// per-key interval lists and keeps no expiry heap. It exists so both
// aggregators satisfy the pipeline's flowTable surface and the per-shard
// heap gauge reads 0 rather than lying under Config.Unordered.
func (a *MergeAggregator) ExpiryHeapDepth() int { return 0 }
