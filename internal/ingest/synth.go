package ingest

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/market"
	"booters/internal/protocols"
)

// StreamConfig tunes SyntheticStream.
type StreamConfig struct {
	// Seed drives all randomness deterministically.
	Seed int64
	// Start is the instant the stream begins; the first week is the week
	// containing it.
	Start time.Time
	// Weeks is the stream length.
	Weeks int
	// Sensors is the honeypot fleet size; <= 0 means 8.
	Sensors int
	// AttacksPerWeek is the mean number of attack flows per week; <= 0
	// means 300. The market simulation shapes the week-to-week volume
	// (supply shocks, churn) around this mean.
	AttacksPerWeek float64
	// ScansPerWeek is the number of single-packet scanner flows per week;
	// < 0 means 0, 0 means AttacksPerWeek/2.
	ScansPerWeek int
	// Shocks are market supply shocks to replay (takedowns etc.).
	Shocks []market.Shock
}

// SyntheticStream generates a time-sorted packet stream for replay through
// the pipeline. Attack volume follows the agent-based market simulator: the
// week's served demand (after churn and any configured supply shocks) sets
// how many attack flows the honeypots observe that week. Each attack flow
// exceeds the per-sensor attack threshold at one "hot" sensor; scans probe
// every sensor at most once, so the batch and streaming classifiers must
// label them scan.
func SyntheticStream(cfg StreamConfig) ([]honeypot.Packet, error) {
	if cfg.Weeks <= 0 {
		return nil, fmt.Errorf("ingest: StreamConfig.Weeks must be positive, got %d", cfg.Weeks)
	}
	if cfg.Start.IsZero() {
		return nil, fmt.Errorf("ingest: StreamConfig.Start is required")
	}
	sensors := cfg.Sensors
	if sensors <= 0 {
		sensors = 8
	}
	attacksPerWeek := cfg.AttacksPerWeek
	if attacksPerWeek <= 0 {
		attacksPerWeek = 300
	}
	scansPerWeek := cfg.ScansPerWeek
	if scansPerWeek == 0 {
		scansPerWeek = int(attacksPerWeek / 2)
	}
	if scansPerWeek < 0 {
		scansPerWeek = 0
	}

	// Run the market first and normalise served demand to the requested
	// mean, so the simulator contributes shape (shocks, churn) while the
	// caller controls volume.
	mcfg := market.DefaultConfig(cfg.Weeks, cfg.Seed)
	mcfg.Shocks = cfg.Shocks
	sim, err := market.New(mcfg)
	if err != nil {
		return nil, err
	}
	served := make([]float64, cfg.Weeks)
	var total float64
	for w := 0; w < cfg.Weeks; w++ {
		// Offered demand sits near the default market's total capacity
		// (~384k attacks/week) so supply shocks show up in served volume
		// instead of being absorbed by surviving providers' headroom.
		rec, err := sim.Step(300_000 * (1 + 0.003*float64(w)))
		if err != nil {
			return nil, err
		}
		served[w] = rec.Served
		total += rec.Served
	}
	if total == 0 {
		return nil, fmt.Errorf("ingest: market served no demand over %d weeks", cfg.Weeks)
	}
	scale := attacksPerWeek * float64(cfg.Weeks) / total

	rng := rand.New(rand.NewSource(cfg.Seed))
	tbl := geo.NewTable()
	countries, weights := CountryWeights()
	var packets []honeypot.Packet

	for w := 0; w < cfg.Weeks; w++ {
		weekStart := cfg.Start.AddDate(0, 0, 7*w)
		mid := weekStart.AddDate(0, 0, 3)
		attacks := int(served[w]*scale + 0.5)
		for i := 0; i < attacks; i++ {
			c := pickWeighted(rng, countries, weights)
			// Bit 21 clear: attack victims stay disjoint from the scanner
			// address space below, so scans never merge into attack flows.
			victim, err := tbl.AddrFor(c, rng.Uint32()&0x1FFFFF)
			if err != nil {
				return nil, err
			}
			proto := PickProtocol(rng, c, mid)
			packets = appendAttackFlow(packets, rng, weekStart, victim, proto, sensors)
		}
		for i := 0; i < scansPerWeek; i++ {
			c := pickWeighted(rng, countries, weights)
			scanner, err := tbl.AddrFor(c, 0x200000|rng.Uint32()&0x1FFFFF)
			if err != nil {
				return nil, err
			}
			proto := PickProtocol(rng, c, mid)
			t := weekStart.Add(time.Duration(rng.Int63n(int64(6 * 24 * time.Hour))))
			packets = append(packets, honeypot.Packet{
				Time:   t,
				Victim: scanner,
				Proto:  proto,
				Sensor: rng.Intn(sensors),
				Size:   len(proto.Request()),
			})
		}
	}
	SortStream(packets)
	return packets, nil
}

// appendAttackFlow emits one attack's packets: a hot sensor pushed past the
// classification threshold plus light spray across the rest of the fleet,
// spaced well inside the quiet gap so the flow stays whole.
func appendAttackFlow(packets []honeypot.Packet, rng *rand.Rand, weekStart time.Time, victim netip.Addr, proto protocols.Protocol, sensors int) []honeypot.Packet {
	// Start early enough in the week that the flow's packets stay inside it.
	t := weekStart.Add(time.Duration(rng.Int63n(int64(6 * 24 * time.Hour))))
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

// CountryWeights returns the victim-country mix (the paper's Table 3
// skew: the US dominates, with a long tail) as parallel name and weight
// slices for weighted draws. Stream generators — SyntheticStream here,
// the scenario engine in internal/scenario — share it so every workload
// carries the same country skew.
func CountryWeights() ([]string, []float64) {
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

// pickWeightedIndex draws an index proportional to its weight (the last
// index when all weights are zero).
func pickWeightedIndex(rng *rand.Rand, weights []float64) int {
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

// pickWeighted draws one name proportional to its weight.
func pickWeighted(rng *rand.Rand, names []string, weights []float64) string {
	return names[pickWeightedIndex(rng, weights)]
}

// PickProtocol draws an amplification protocol from the popularity mix at
// time t (the China-specific mix for Chinese victims).
func PickProtocol(rng *rand.Rand, country string, t time.Time) protocols.Protocol {
	all := protocols.All()
	weights := make([]float64, len(all))
	for i, p := range all {
		if country == geo.CN {
			weights[i] = p.ChinaPopularity(t)
		} else {
			weights[i] = p.Popularity(t)
		}
	}
	return all[pickWeightedIndex(rng, weights)]
}

// SortStream time-orders the packets in place by honeypot.ComparePackets,
// so the stream is deterministic.
func SortStream(packets []honeypot.Packet) {
	slices.SortFunc(packets, honeypot.ComparePackets)
}

// Datagrams re-encodes decoded packets as wire-format datagrams carrying
// each protocol's canonical request payload on its well-known port, for
// replays that exercise the decode path.
func Datagrams(packets []honeypot.Packet) []Datagram {
	out := make([]Datagram, len(packets))
	reqs := make(map[protocols.Protocol][]byte, protocols.Count())
	for _, p := range protocols.All() {
		reqs[p] = p.Request()
	}
	for i, p := range packets {
		out[i] = Datagram{
			Time:    p.Time,
			Sensor:  p.Sensor,
			Victim:  p.Victim,
			Port:    p.Proto.Port(),
			Payload: reqs[p.Proto],
		}
	}
	return out
}
