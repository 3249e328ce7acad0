package scenario

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"booters/internal/dataset"
	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/protocols"
)

// Run is a generated scenario: the clean packet stream, the optional
// hostile-transformed twin, the optional scrape-event stream, and the
// Manifest recording the injected ground truth.
type Run struct {
	// Config is the validated, defaults-filled configuration the run was
	// generated from.
	Config Config
	// Manifest records the scenario's ground truth.
	Manifest *Manifest
	// Packets is the clean, time-sorted packet stream.
	Packets []honeypot.Packet
	// Hostile is the hostile-transformed stream (nil unless
	// Config.Hostile is set): duplicates inserted, sensor clocks skewed,
	// delivery order shuffled within the reorder bound.
	Hostile []honeypot.Packet
	// SensorSkew is the per-sensor clock offset applied to Hostile
	// (nil when no skew was configured).
	SensorSkew []time.Duration
	// Scrape is the streaming self-report source (nil unless
	// Config.SelfReport is set): one counter observation per site per
	// week, emitted in week-major order.
	Scrape []ScrapeEvent
	// SelfReport is the self-report panel built directly from the
	// simulation — the reference a ScrapeCollector fed Scrape must
	// reproduce.
	SelfReport *dataset.SelfReportPanel
}

// Stream returns the packets a sensor would deliver: the hostile twin
// when one was generated, the clean stream otherwise.
func (r *Run) Stream() []honeypot.Packet {
	if r.Hostile != nil {
		return r.Hostile
	}
	return r.Packets
}

// RequiresUnordered reports whether Stream is not time-sorted (a reorder
// transform was applied) and therefore needs an order-tolerant pipeline
// fed with a watermark lagged by WatermarkLag.
func (r *Run) RequiresUnordered() bool {
	return r.Hostile != nil && r.Config.Hostile.ReorderSeconds > 0
}

// WatermarkLag returns a safe low-watermark lag for feeding Stream to an
// unordered pipeline: advancing the source to (packet time - lag) is a
// valid promise because reordering is bounded to that window. It is zero
// when Stream is time-sorted (RequiresUnordered is false), so it can be
// passed straight to ingest.Ingestor.Feed.
func (r *Run) WatermarkLag() time.Duration {
	if !r.RequiresUnordered() {
		return 0
	}
	return time.Duration(r.Config.Hostile.ReorderSeconds*float64(time.Second)) + time.Second
}

// Generate builds the scenario described by cfg: plans weekly attack
// counts, emits exactly one attack flow per planned attack (plus scanner
// probes), applies the hostile transforms, runs the self-report side, and
// records the ground truth in the manifest. Deterministic for a given
// config.
func Generate(cfg Config) (*Run, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	planned, err := cfg.plan()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	tbl := geo.NewTable()
	countries, weights := countryWeights()

	// Victim allocation. Unique mode gives every attack its own victim
	// address (a sequential host counter), so no two attacks can ever
	// merge into one flow. Pool mode draws from a fixed roster and
	// stride-schedules same-victim attacks farther apart than the flow
	// gap — checked per week below.
	type victim struct {
		addr    netip.Addr
		country string
	}
	var pool []victim
	if cfg.VictimPool > 0 {
		pool = make([]victim, cfg.VictimPool)
		for i := range pool {
			c := pickCountry(rng, countries, weights)
			// Bit 21 clear keeps attack victims disjoint from the
			// scanner address space.
			addr, err := tbl.AddrFor(c, uint32(i)&0x1FFFFF)
			if err != nil {
				return nil, err
			}
			pool[i] = victim{addr, c}
		}
	}
	var nextHost uint32
	var nextScanner uint32

	var packets []honeypot.Packet
	attacksTotal, scansTotal := 0, 0
	// Per-victim-week attack counts for the mitigation ground truth.
	var mitAdmitted, mitMitigated int
	span := 6*24*time.Hour - 2*weekMargin

	for w := 0; w < cfg.Weeks; w++ {
		weekStart := cfg.Start.AddDate(0, 0, 7*w)
		mid := weekStart.AddDate(0, 0, 3)
		n := int(planned[w])
		if pool != nil && n > 0 {
			// Same-victim spacing: consecutive attacks on one pool victim
			// are stride*len(pool) apart; demand at least the flow gap
			// plus generous flow-duration headroom.
			if stride := span / time.Duration(n) * time.Duration(len(pool)); stride < honeypot.FlowGap+3*time.Minute {
				return nil, fmt.Errorf("scenario: week %d plans %d attacks over a %d-victim pool; same-victim spacing %v is inside the flow gap — grow VictimPool or cut volume",
					w, n, len(pool), stride)
			}
		}
		perVictim := make(map[int]int)
		for i := 0; i < n; i++ {
			var v victim
			var t time.Time
			if pool != nil {
				idx := i % len(pool)
				v = pool[idx]
				perVictim[idx]++
				// Stride schedule with bounded jitter keeps same-victim
				// spacing while staying deterministic.
				base := weekStart.Add(weekMargin + span/time.Duration(n)*time.Duration(i))
				t = base.Add(time.Duration(rng.Int63n(int64(30 * time.Second))))
			} else {
				c := pickCountry(rng, countries, weights)
				addr, err := tbl.AddrFor(c, nextHost&0x1FFFFF)
				if err != nil {
					return nil, err
				}
				nextHost++
				v = victim{addr, c}
				t = weekStart.Add(weekMargin + time.Duration(rng.Int63n(int64(span))))
			}
			proto := pickProtocol(rng, v.country, mid)
			packets = emitAttack(packets, rng, t, v.addr, proto, cfg.Sensors)
			attacksTotal++
		}
		if cfg.Mitigation != nil {
			for _, count := range perVictim {
				adm := count
				if adm > cfg.Mitigation.PerVictimWeekly {
					adm = cfg.Mitigation.PerVictimWeekly
				}
				mitAdmitted += adm
				mitMitigated += count - adm
			}
		}
		for i := 0; i < cfg.ScansPerWeek; i++ {
			c := pickCountry(rng, countries, weights)
			scanner, err := tbl.AddrFor(c, 0x200000|nextScanner&0x1FFFFF)
			if err != nil {
				return nil, err
			}
			nextScanner++
			proto := pickProtocol(rng, c, mid)
			t := weekStart.Add(weekMargin + time.Duration(rng.Int63n(int64(span))))
			packets = append(packets, honeypot.Packet{
				Time:   t,
				Victim: scanner,
				Proto:  proto,
				Sensor: rng.Intn(cfg.Sensors),
				Size:   len(proto.Request()),
			})
			scansTotal++
		}
	}
	slices.SortFunc(packets, honeypot.ComparePackets)

	run := &Run{Config: cfg, Packets: packets}
	if cfg.Hostile != nil {
		run.Hostile, run.SensorSkew = buildHostile(cfg, packets)
	}
	if cfg.SelfReport != nil {
		if err := generateSelfReport(cfg, planned, run); err != nil {
			return nil, err
		}
	}
	run.Manifest = buildManifest(cfg, planned, run, attacksTotal, scansTotal, mitAdmitted, mitMitigated)
	return run, nil
}

// emitAttack appends one attack flow starting at t: a hot sensor pushed
// past the classification threshold plus light spray across the fleet,
// spaced well inside the quiet gap (total duration stays under ~90
// seconds, far inside weekMargin).
func emitAttack(packets []honeypot.Packet, rng *rand.Rand, t time.Time, victim netip.Addr, proto protocols.Protocol, sensors int) []honeypot.Packet {
	hot := rng.Intn(sensors)
	n := honeypot.AttackThreshold + 1 + rng.Intn(10)
	size := len(proto.Request())
	for j := 0; j < n; j++ {
		packets = append(packets, honeypot.Packet{
			Time: t, Victim: victim, Proto: proto, Sensor: hot, Size: size,
		})
		t = t.Add(time.Duration(200+rng.Int63n(2000)) * time.Millisecond)
	}
	spray := rng.Intn(3 * sensors / 2)
	for j := 0; j < spray; j++ {
		packets = append(packets, honeypot.Packet{
			Time: t, Victim: victim, Proto: proto, Sensor: rng.Intn(sensors), Size: size,
		})
		t = t.Add(time.Duration(200+rng.Int63n(2000)) * time.Millisecond)
	}
	return packets
}

// countryWeights returns the victim-country mix (the paper's Table 3
// skew: the US dominates, with a long tail) as parallel name and weight
// slices for weighted draws.
func countryWeights() ([]string, []float64) {
	countries := geo.Countries()
	weights := make([]float64, len(countries))
	for i, c := range countries {
		switch c {
		case geo.US:
			weights[i] = 45
		case geo.FR:
			weights[i] = 10
		case geo.CN:
			weights[i] = 8
		case geo.UK:
			weights[i] = 7
		case geo.DE:
			weights[i] = 6
		default:
			weights[i] = 2.5
		}
	}
	return countries, weights
}

// pickIndex draws an index proportional to its weight (the last index
// when all weights are zero). It consumes one rng.Float64.
func pickIndex(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	r := rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// pickCountry draws one country code proportional to its weight.
func pickCountry(rng *rand.Rand, countries []string, weights []float64) string {
	return countries[pickIndex(rng, weights)]
}

// pickProtocol draws an amplification protocol from the popularity mix at
// time t (the China-specific mix for Chinese victims).
func pickProtocol(rng *rand.Rand, country string, t time.Time) protocols.Protocol {
	all := protocols.All()
	weights := make([]float64, len(all))
	for i, p := range all {
		weights[i] = popularity(p, country, t)
	}
	return all[pickIndex(rng, weights)]
}

// popularity is protocol p's weight in attacks on country at time t: the
// China-specific mix for Chinese victims, the global mix otherwise.
func popularity(p protocols.Protocol, country string, t time.Time) float64 {
	if country == geo.CN {
		return p.ChinaPopularity(t)
	}
	return p.Popularity(t)
}
