package honeypot

import (
	"cmp"
	"net/netip"
	"slices"
	"sync"
	"time"

	"booters/internal/protocols"
)

// RateLimit is the maximum number of packets a single sensor reflects to
// one destination per rate-limit window, after which the destination is
// reported to the registry. The hopscotch design "limits the number of
// packets it reflects to any IP address".
const RateLimit = 5

// RateWindow is the sliding window of the per-destination rate limiter.
const RateWindow = time.Minute

// VictimRegistry is the central server of the ethics appendix: "when any
// hopscotch sensor identifies a victim this is reported to a central server
// which informs all the other sensors of the attack, so that they all refuse
// to reflect any packets at all to the victim." It is safe for concurrent
// use by many sensors.
type VictimRegistry struct {
	mu      sync.RWMutex
	victims map[netip.Addr]time.Time
	reports int // Reports since the last TTL sweep
	// TTL is how long a victim remains suppressed; zero means forever.
	TTL time.Duration
}

// registrySweepEvery is how many Reports may land between opportunistic TTL
// sweeps; it bounds the registry's growth under sustained traffic without
// putting a full-map scan on every report.
const registrySweepEvery = 1024

// NewVictimRegistry returns an empty registry with the given suppression
// TTL (zero = permanent suppression).
func NewVictimRegistry(ttl time.Duration) *VictimRegistry {
	return &VictimRegistry{victims: make(map[netip.Addr]time.Time), TTL: ttl}
}

// Report marks addr as an identified victim at time now. With a nonzero
// TTL it also sweeps expired entries every registrySweepEvery reports, so
// the registry stays bounded even if nobody calls Prune.
func (r *VictimRegistry) Report(addr netip.Addr, now time.Time) {
	r.mu.Lock()
	r.victims[addr] = now
	if r.TTL > 0 {
		if r.reports++; r.reports >= registrySweepEvery {
			r.reports = 0
			r.pruneLocked(now)
		}
	}
	r.mu.Unlock()
}

// Prune removes entries whose suppression TTL has expired as of now and
// returns how many were removed. With a zero TTL suppression is permanent
// and Prune removes nothing.
func (r *VictimRegistry) Prune(now time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pruneLocked(now)
}

func (r *VictimRegistry) pruneLocked(now time.Time) int {
	if r.TTL == 0 {
		return 0
	}
	var n int
	for addr, t := range r.victims {
		if now.Sub(t) >= r.TTL {
			delete(r.victims, addr)
			n++
		}
	}
	return n
}

// Suppressed reports whether reflections to addr must be refused at now.
func (r *VictimRegistry) Suppressed(addr netip.Addr, now time.Time) bool {
	r.mu.RLock()
	t, ok := r.victims[addr]
	r.mu.RUnlock()
	if !ok {
		return false
	}
	if r.TTL == 0 {
		return true
	}
	return now.Sub(t) < r.TTL
}

// Len returns the number of currently recorded victims.
func (r *VictimRegistry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.victims)
}

// Sensor is one honeypot reflector. It logs every received packet (which is
// what the measurement dataset is built from) and decides whether to send a
// (small) reflected response, applying rate limiting, victim suppression and
// white-hat exemptions.
type Sensor struct {
	// ID identifies the sensor within the fleet.
	ID int
	// Registry is the shared victim registry (required).
	Registry *VictimRegistry
	// WhiteHats is the set of known research scanners that must never
	// receive replies ("to avoid wasting their time or affecting their
	// results").
	WhiteHats map[netip.Addr]bool

	mu      sync.Mutex
	log     []Packet
	limiter map[netip.Addr]*rateState
	stats   SensorStats
}

// rateState is a simple sliding-window counter per destination.
type rateState struct {
	windowStart time.Time
	count       int
}

// SensorStats counts a sensor's decisions.
type SensorStats struct {
	// Received is the number of packets logged.
	Received int
	// Reflected is the number of responses sent.
	Reflected int
	// RateLimited counts packets dropped by the per-destination limiter.
	RateLimited int
	// SuppressedVictim counts packets refused because the destination is a
	// registered victim.
	SuppressedVictim int
	// WhiteHatDropped counts packets from exempt research scanners.
	WhiteHatDropped int
	// Malformed counts packets that failed request validation.
	Malformed int
}

// NewSensor returns a sensor attached to the shared registry.
func NewSensor(id int, reg *VictimRegistry) *Sensor {
	return &Sensor{
		ID:        id,
		Registry:  reg,
		WhiteHats: make(map[netip.Addr]bool),
		limiter:   make(map[netip.Addr]*rateState),
	}
}

// Receive handles one incoming datagram: it logs the packet for measurement
// and returns the reflected response payload, or nil when the sensor
// declines to respond (rate limit, suppression, white-hat, malformed).
func (s *Sensor) Receive(now time.Time, src netip.Addr, proto protocols.Protocol, payload []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()

	s.log = append(s.log, Packet{Time: now, Victim: src, Proto: proto, Sensor: s.ID, Size: len(payload)})
	s.stats.Received++

	if s.WhiteHats[src] {
		s.stats.WhiteHatDropped++
		return nil
	}
	if err := proto.ValidateRequest(payload); err != nil {
		s.stats.Malformed++
		return nil
	}
	if s.Registry.Suppressed(src, now) {
		s.stats.SuppressedVictim++
		return nil
	}
	rs, ok := s.limiter[src]
	if !ok || now.Sub(rs.windowStart) >= RateWindow {
		rs = &rateState{windowStart: now}
		s.limiter[src] = rs
	}
	rs.count++
	if rs.count > RateLimit {
		// The limiter tripping is the sensor "identifying a victim":
		// report centrally so every sensor refuses this destination.
		s.Registry.Report(src, now)
		s.stats.RateLimited++
		return nil
	}
	s.stats.Reflected++
	// Honeypot responses are deliberately small: cap well below a real
	// amplifier so the fleet absorbs attack traffic instead of adding to it.
	return proto.Response(payload, 512)
}

// Stats returns a copy of the sensor's decision counters.
func (s *Sensor) Stats() SensorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// DrainLog returns and clears the packet log.
func (s *Sensor) DrainLog() []Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.log
	s.log = nil
	return out
}

// Fleet is a set of sensors sharing one victim registry.
type Fleet struct {
	// Sensors holds the fleet members, indexed by ID.
	Sensors []*Sensor
	// Registry is the shared victim registry.
	Registry *VictimRegistry
}

// NewFleet creates n sensors sharing a fresh registry with the given victim
// suppression TTL.
func NewFleet(n int, ttl time.Duration) *Fleet {
	reg := NewVictimRegistry(ttl)
	f := &Fleet{Registry: reg}
	for i := 0; i < n; i++ {
		f.Sensors = append(f.Sensors, NewSensor(i, reg))
	}
	return f
}

// AddWhiteHat exempts a scanner address on every sensor.
func (f *Fleet) AddWhiteHat(addr netip.Addr) {
	for _, s := range f.Sensors {
		s.WhiteHats[addr] = true
	}
}

// DrainLogs merges and time-sorts every sensor's packet log.
func (f *Fleet) DrainLogs() []Packet {
	var all []Packet
	for _, s := range f.Sensors {
		all = append(all, s.DrainLog()...)
	}
	slices.SortFunc(all, ComparePackets)
	return all
}

// ComparePackets orders packets by time, breaking ties by victim,
// protocol, sensor and finally size. That is a total order on packets, so
// sorting by it gives one sequence whatever order the packets arrived in.
// Fleet logs and the scenario generator's streams both sort by it.
func ComparePackets(a, b Packet) int {
	if c := a.Time.Compare(b.Time); c != 0 {
		return c
	}
	if c := a.Victim.Compare(b.Victim); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Proto, b.Proto); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Sensor, b.Sensor); c != 0 {
		return c
	}
	return cmp.Compare(a.Size, b.Size)
}
