// Package honeypot implements the measurement side of the paper's first
// dataset: a fleet of UDP-reflection honeypot sensors ("hopscotch"), the
// flow aggregation rule that groups packets to the same victim and protocol
// until a 15-minute quiet gap, and the attack/scan classifier ("if any
// sensor received more than 5 packets... we deem it an attack, if not...
// a scan").
//
// The package also reproduces the operational behaviours described in the
// paper's ethics appendix: per-destination rate limiting, a central victim
// registry that makes every sensor refuse to reflect to an identified
// victim, and suppression of replies to known white-hat scanners.
package honeypot

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"booters/internal/protocols"
)

// FlowGap is the quiet interval that terminates a flow: "until there is a
// gap of at least 15 minutes with no packets being received by any sensor".
const FlowGap = 15 * time.Minute

// AttackThreshold is the per-sensor packet count above which a flow is an
// attack: "if any sensor received more than 5 packets".
const AttackThreshold = 5

// Packet is one UDP datagram observed by a sensor, already attributed to a
// (possibly spoofed) source/victim address.
type Packet struct {
	// Time is the sensor receive timestamp.
	Time time.Time
	// Victim is the packet's source address — under spoofing, the victim
	// the reflected traffic is aimed at.
	Victim netip.Addr
	// Proto is the amplification protocol of the destination port.
	Proto protocols.Protocol
	// Sensor is the ID of the receiving sensor.
	Sensor int
	// Size is the payload length in bytes.
	Size int
}

// FlowKey identifies the aggregation bucket of a packet. Flow keys are
// comparable and can be used directly as map keys.
type FlowKey struct {
	// Victim is the target address (or prefix representative).
	Victim netip.Addr
	// Proto is the amplification protocol.
	Proto protocols.Protocol
}

// Flow is a completed group of packets to one victim over one protocol,
// closed by a 15-minute quiet gap.
type Flow struct {
	// Key identifies the victim and protocol.
	Key FlowKey
	// First and Last are the timestamps of the first and last packet.
	First, Last time.Time
	// PacketsBySensor counts packets per sensor ID.
	PacketsBySensor map[int]int
	// TotalPackets is the number of packets across all sensors.
	TotalPackets int
	// TotalBytes is the byte volume across all sensors.
	TotalBytes int
}

// MaxSensorPackets returns the largest per-sensor packet count.
func (f *Flow) MaxSensorPackets() int {
	var m int
	for _, n := range f.PacketsBySensor {
		if n > m {
			m = n
		}
	}
	return m
}

// IsAttack applies the paper's classification rule: the flow is an attack
// iff some sensor saw more than AttackThreshold packets.
func (f *Flow) IsAttack() bool { return f.MaxSensorPackets() > AttackThreshold }

// Duration returns the time between the first and last packet.
func (f *Flow) Duration() time.Duration { return f.Last.Sub(f.First) }

// Classification labels a completed flow.
type Classification int

const (
	// Scan means no sensor exceeded the attack threshold.
	Scan Classification = iota
	// Attack means at least one sensor exceeded the attack threshold.
	Attack
)

// String returns "scan" or "attack".
func (c Classification) String() string {
	if c == Attack {
		return "attack"
	}
	return "scan"
}

// Classify returns the flow's classification.
func Classify(f *Flow) Classification {
	if f.IsAttack() {
		return Attack
	}
	return Scan
}

// StaleError reports a packet rejected because its timestamp falls behind
// the aggregator's watermark — the staleness bar below which the
// aggregator has already committed flow closures and can no longer book a
// packet correctly. Both the ordered Aggregator and the order-tolerant
// MergeAggregator reject with this one rule; callers count rejected
// packets (ingest surfaces them as Stats.Late) rather than dropping them
// silently.
type StaleError struct {
	// PacketTime is the rejected packet's timestamp.
	PacketTime time.Time
	// Watermark is the aggregator's staleness bar at the time of
	// rejection: packets at or after it are accepted.
	Watermark time.Time
}

// Error renders the rejection with both timestamps.
func (e *StaleError) Error() string {
	return fmt.Sprintf("honeypot: packet at %v is stale: behind the aggregator watermark %v (disorder horizon exceeded)",
		e.PacketTime, e.Watermark)
}

// Aggregator groups a time-ordered packet stream into flows. Packets must
// be offered in non-decreasing time order (the merged view across all
// sensors); out-of-order packets within one quiet gap of the stream head
// are accepted but never reopen a closed flow. For input that is out of
// order beyond that tolerance — a sensor fleet's interleaved sessions, a
// reordered recording — use MergeAggregator instead.
//
// Expiry is watermark-driven: open flows sit in a min-heap keyed by their
// last-packet time, so each Offer peeks at the heap top instead of
// scanning the whole open-flow table. Heap entries are lazy — a flow that
// received more packets since its entry was pushed is re-keyed when the
// stale entry surfaces — which keeps the per-packet cost at O(1) plus an
// amortised O(log n) per flow closure rather than O(n) per packet.
type Aggregator struct {
	open      map[FlowKey]*Flow
	completed []*Flow
	lastTime  time.Time
	gap       time.Duration
	exp       expiryHeap
	free      flowFreeList
}

// flowFreeList recycles Flow structs (and their per-sensor count maps)
// between closure and the next flow open, so sustained flow churn stops
// allocating. It is shared by both aggregators and carries their
// concurrency rule: the free list belongs to the aggregator's owning
// goroutine — Recycle must be called from the same goroutine that calls
// Offer, and only with flows the caller is done with (a recycled flow is
// reused by a later Offer, so retaining it corrupts a future flow).
type flowFreeList []*Flow

// take returns a zeroed flow, reusing a recycled one when available.
func (fl *flowFreeList) take() *Flow {
	s := *fl
	if n := len(s); n > 0 {
		f := s[n-1]
		s[n-1] = nil
		*fl = s[:n-1]
		return f
	}
	return &Flow{PacketsBySensor: make(map[int]int)}
}

// put resets f and shelves it for reuse.
func (fl *flowFreeList) put(f *Flow) {
	if f == nil {
		return
	}
	m := f.PacketsBySensor
	clear(m)
	*f = Flow{PacketsBySensor: m}
	*fl = append(*fl, f)
}

// Recycle hands a consumed flow back for reuse by a later Offer. Callers
// that retain closed flows (tests holding them for assertions) simply
// never call it. Must be called from the goroutine that owns the
// aggregator, and only with flows this aggregator produced.
func (a *Aggregator) Recycle(f *Flow) { a.free.put(f) }

// expiryEntry schedules one open flow for an expiry check: the flow
// cannot close before last + gap, so the heap orders checks by last. The
// entry is a hint, not the truth — the flow's live Last is re-read when
// the entry reaches the top.
type expiryEntry struct {
	last int64 // flow Last as unix nanos when the entry was (re)keyed
	key  FlowKey
}

// expiryHeap is a hand-rolled min-heap of expiry hints ordered by last.
// container/heap is avoided on this path: the interface indirection and
// per-op allocations are measurable at millions of packets per second.
type expiryHeap []expiryEntry

// push adds one hint and restores the heap order.
func (h *expiryHeap) push(e expiryEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].last <= s[i].last {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// pop removes the top hint; the caller has already inspected it.
func (h *expiryHeap) pop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	h.siftDown()
}

// siftDown restores heap order after the top entry was replaced or
// re-keyed in place.
func (h *expiryHeap) siftDown() {
	s := *h
	i := 0
	for {
		left := 2*i + 1
		if left >= len(s) {
			return
		}
		least := left
		if right := left + 1; right < len(s) && s[right].last < s[left].last {
			least = right
		}
		if s[i].last <= s[least].last {
			return
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}

// NewAggregator returns an empty aggregator using the paper's 15-minute
// quiet gap.
func NewAggregator() *Aggregator {
	return NewAggregatorWithGap(FlowGap)
}

// NewAggregatorWithGap returns an aggregator with a custom quiet gap, used
// for sensitivity analysis of the paper's 15-minute rule. It panics for a
// non-positive gap.
func NewAggregatorWithGap(gap time.Duration) *Aggregator {
	if gap <= 0 {
		panic("honeypot: aggregator gap must be positive")
	}
	return &Aggregator{open: make(map[FlowKey]*Flow), gap: gap}
}

// Watermark returns the aggregator's staleness bar: one quiet gap behind
// the stream head, the oldest timestamp Offer still accepts. It is the
// zero time until the first packet or Advance.
func (a *Aggregator) Watermark() time.Time {
	if a.lastTime.IsZero() {
		return time.Time{}
	}
	return a.lastTime.Add(-a.gap)
}

// Offer adds one packet to the aggregator, first closing any flows whose
// quiet gap has elapsed as of the packet's timestamp. Packets behind the
// watermark are rejected with a StaleError.
func (a *Aggregator) Offer(p Packet) error {
	if w := a.Watermark(); !w.IsZero() && p.Time.Before(w) {
		return &StaleError{PacketTime: p.Time, Watermark: w}
	}
	if p.Time.After(a.lastTime) {
		a.lastTime = p.Time
	}
	a.expire(p.Time)
	key := FlowKey{Victim: p.Victim, Proto: p.Proto}
	f, ok := a.open[key]
	if !ok || p.Time.Sub(f.Last) >= a.gap {
		if ok {
			// Quiet gap elapsed for exactly this key: close the old flow.
			// Its heap entry is left behind and discarded when it
			// surfaces (the key now maps to the newer flow).
			a.completed = append(a.completed, f)
		}
		f = a.free.take()
		f.Key = key
		f.First = p.Time
		a.open[key] = f
		a.exp.push(expiryEntry{last: p.Time.UnixNano(), key: key})
	}
	if p.Time.After(f.Last) {
		f.Last = p.Time
	}
	f.PacketsBySensor[p.Sensor]++
	f.TotalPackets++
	f.TotalBytes += p.Size
	return nil
}

// expire closes every open flow whose last packet is at least one quiet gap
// before now, by draining the expiry heap only as far as the watermark
// reaches. Every open flow holds at least one heap entry keyed at or
// before its live Last, so nothing expirable can hide below the top.
func (a *Aggregator) expire(now time.Time) {
	bar := now.Add(-a.gap).UnixNano()
	for len(a.exp) > 0 {
		top := a.exp[0]
		if top.last > bar {
			return // nothing at or past the gap yet
		}
		f, ok := a.open[top.key]
		if !ok {
			a.exp.pop() // flow already closed by its key's next packet
			continue
		}
		if last := f.Last.UnixNano(); last != top.last {
			// Stale hint: the flow (or a successor flow on the same key)
			// received packets since this entry was keyed. Re-key it in
			// place; Last only grows, so it sinks.
			a.exp[0].last = last
			a.exp.siftDown()
			continue
		}
		a.completed = append(a.completed, f)
		delete(a.open, top.key)
		a.exp.pop()
	}
}

// Advance closes flows that have been quiet as of the given time without
// offering a packet (end-of-stream housekeeping).
func (a *Aggregator) Advance(now time.Time) {
	if now.After(a.lastTime) {
		a.lastTime = now
	}
	a.expire(now)
}

// Flush closes all remaining open flows and returns every completed flow in
// first-packet order. The aggregator is reset.
func (a *Aggregator) Flush() []*Flow {
	for key, f := range a.open {
		a.completed = append(a.completed, f)
		delete(a.open, key)
	}
	a.exp = a.exp[:0]
	out := a.completed
	a.completed = nil
	sortFlows(out)
	return out
}

// sortFlows orders flows by first packet. slices.SortFunc, not
// sort.Slice: the latter allocates a reflect-based swapper per call,
// which is measurable at drain frequency.
func sortFlows(out []*Flow) {
	slices.SortFunc(out, func(a, b *Flow) int { return a.First.Compare(b.First) })
}

// Completed returns (and drains) the flows closed so far, in first-packet
// order, leaving open flows in place.
func (a *Aggregator) Completed() []*Flow {
	out := a.completed
	a.completed = nil
	sortFlows(out)
	return out
}

// OpenFlows returns the number of currently open flows.
func (a *Aggregator) OpenFlows() int { return len(a.open) }

// ExpiryHeapDepth returns the number of expiry hints currently queued —
// at least OpenFlows, since a flow closed by its key's next packet leaves
// its entry behind until it surfaces, so the gap between the two measures
// dead-hint backlog. Exposed for the observability layer's per-shard
// gauges.
func (a *Aggregator) ExpiryHeapDepth() int { return len(a.exp) }
