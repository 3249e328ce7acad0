package ingest

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/protocols"
	"booters/internal/scenario"
	"booters/internal/timeseries"
)

var testStart = time.Date(2018, time.October, 1, 0, 0, 0, 0, time.UTC)

func testConfig(shards int, weeks int) Config {
	return Config{
		Shards: shards,
		Start:  testStart,
		End:    testStart.AddDate(0, 0, 7*weeks-1),
		// Small batches and frequent watermarks so short test streams
		// exercise the batching and expiry machinery, not just Close.
		BatchSize:      32,
		WatermarkEvery: 128,
	}
}

func testStream(t testing.TB, weeks int, attacksPerWeek float64) []honeypot.Packet {
	t.Helper()
	run, err := scenario.Generate(scenario.Config{
		Seed:            7,
		Start:           testStart,
		Weeks:           weeks,
		Sensors:         6,
		BaselineAttacks: attacksPerWeek,
		Market:          &scenario.MarketDynamics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := run.Packets
	if len(packets) == 0 {
		t.Fatal("synthetic stream is empty")
	}
	for i := 1; i < len(packets); i++ {
		if packets[i].Time.Before(packets[i-1].Time) {
			t.Fatalf("stream not time-sorted at %d", i)
		}
	}
	return packets
}

// flowLog is a test Sink that copies every closed flow at Consume — the
// pipeline recycles the *Flow afterwards — and at Flush sorts the copies
// by first packet, then victim, then protocol, so a batch run and a
// streaming run at any shard count can be compared flow by flow.
type flowLog struct {
	branches []*flowLogBranch
	flows    []honeypot.Flow
}

type flowLogBranch struct{ flows []honeypot.Flow }

func (l *flowLog) Open(cfg *Config, shards int) ([]SinkBranch, error) {
	out := make([]SinkBranch, shards)
	for i := range out {
		b := &flowLogBranch{}
		l.branches = append(l.branches, b)
		out[i] = b
	}
	return out, nil
}

func (b *flowLogBranch) Consume(f *honeypot.Flow, c honeypot.Classification) error {
	cp := *f
	cp.PacketsBySensor = maps.Clone(f.PacketsBySensor)
	b.flows = append(b.flows, cp)
	return nil
}

func (l *flowLog) Flush() error {
	for _, b := range l.branches {
		l.flows = append(l.flows, b.flows...)
	}
	slices.SortFunc(l.flows, func(a, b honeypot.Flow) int {
		if c := a.First.Compare(b.First); c != 0 {
			return c
		}
		if c := a.Key.Victim.Compare(b.Key.Victim); c != 0 {
			return c
		}
		return cmp.Compare(a.Key.Proto, b.Key.Proto)
	})
	return nil
}

// withFlowLog returns cfg with a fresh flowLog added to its sinks.
func withFlowLog(cfg Config) (Config, *flowLog) {
	l := &flowLog{}
	cfg.Sinks = append(slices.Clip(cfg.Sinks), l)
	return cfg, l
}

func runStream(t testing.TB, cfg Config, packets []honeypot.Packet) *Result {
	t.Helper()
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets {
		if err := in.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamingMatchesBatch is the subsystem's core guarantee: the same
// packets through the sharded streaming pipeline (any shard count) and
// through the single batch aggregator yield identical flows, attack/scan
// classifications, and weekly per-country and per-protocol series.
func TestStreamingMatchesBatch(t *testing.T) {
	packets := testStream(t, 4, 120)
	cfg, wantFlows := withFlowLog(testConfig(1, 4))
	want, err := Batch(cfg, packets)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Attacks == 0 || want.Stats.Scans == 0 {
		t.Fatalf("degenerate batch reference: %+v", want.Stats)
	}
	for _, shards := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg, gotFlows := withFlowLog(testConfig(shards, 4))
			got := runStream(t, cfg, packets)
			compareResults(t, want, got)
			compareFlows(t, wantFlows, gotFlows)
		})
	}
}

// statsEqual compares Stats including the per-sensor shed ledger (Stats
// holds a map, so it is not directly comparable).
func statsEqual(a, b Stats) bool { return reflect.DeepEqual(a, b) }

func compareResults(t *testing.T, want, got *Result) {
	t.Helper()
	if !statsEqual(got.Stats, want.Stats) {
		t.Errorf("stats: got %+v want %+v", got.Stats, want.Stats)
	}
	compareSeries(t, "global", want.Global, got.Global)
	for _, c := range geo.Countries() {
		compareSeries(t, "country "+c, want.Country(c), got.Country(c))
	}
	for _, p := range protocols.All() {
		compareSeries(t, "protocol "+p.String(), want.Protocol(p), got.Protocol(p))
	}
	for _, c := range geo.Countries() {
		for _, p := range protocols.All() {
			compareSeries(t, "country "+c+" protocol "+p.String(), want.CountryProtocol(c, p), got.CountryProtocol(c, p))
		}
	}
}

// compareFlows checks two flow logs agree flow by flow.
func compareFlows(t *testing.T, want, got *flowLog) {
	t.Helper()
	if len(got.flows) != len(want.flows) {
		t.Fatalf("flows: got %d want %d", len(got.flows), len(want.flows))
	}
	for i := range want.flows {
		wf, gf := &want.flows[i], &got.flows[i]
		if wf.Key != gf.Key || !wf.First.Equal(gf.First) || !wf.Last.Equal(gf.Last) ||
			wf.TotalPackets != gf.TotalPackets || wf.TotalBytes != gf.TotalBytes ||
			honeypot.Classify(wf) != honeypot.Classify(gf) {
			t.Fatalf("flow %d: got %+v want %+v", i, gf, wf)
		}
		for s, n := range wf.PacketsBySensor {
			if gf.PacketsBySensor[s] != n {
				t.Fatalf("flow %d sensor %d: got %d want %d", i, s, gf.PacketsBySensor[s], n)
			}
		}
	}
}

func compareSeries(t *testing.T, name string, want, got *timeseries.Series) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: missing series", name)
	}
	if !got.StartWeek.Equal(want.StartWeek) || got.Len() != want.Len() {
		t.Fatalf("%s: misaligned (%v+%d vs %v+%d)", name, got.StartWeek, got.Len(), want.StartWeek, want.Len())
	}
	for i, v := range want.Values {
		if got.Values[i] != v {
			t.Errorf("%s week %v: got %v want %v", name, want.Week(i), got.Values[i], v)
		}
	}
}

// TestCountryProtocolMarginals pins the Figure 6 breakdown's internal
// consistency: for every country, summing its per-protocol series over
// protocols reproduces the country's weekly attack series (both credit
// every attributed country once per attack).
func TestCountryProtocolMarginals(t *testing.T) {
	packets := testStream(t, 4, 120)
	res := runStream(t, testConfig(4, 4), packets)
	if res.Stats.Attacks == 0 {
		t.Fatal("degenerate stream")
	}
	for _, c := range geo.Countries() {
		ws := res.Country(c)
		sum := timeseries.NewSeries(ws.StartWeek, ws.Len())
		for _, p := range protocols.All() {
			if err := sum.AddSeries(res.CountryProtocol(c, p)); err != nil {
				t.Fatal(err)
			}
		}
		compareSeries(t, "country "+c+" marginal", ws, sum)
	}
}

// TestStreamingMatchesBatchWithShocks replays a market takedown so the
// stream's volume drops mid-span, and checks equivalence plus the drop.
func TestStreamingMatchesBatchWithShocks(t *testing.T) {
	run, err := scenario.Generate(scenario.Config{
		Seed:            11,
		Start:           testStart,
		Weeks:           6,
		BaselineAttacks: 80,
		// In market mode a takedown acts as a supply shock.
		Takedowns: []scenario.Takedown{{Name: "takedown", Week: 3, Weeks: 3, DropPct: 95}},
		Market:    &scenario.MarketDynamics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := run.Packets
	want, err := Batch(testConfig(1, 6), packets)
	if err != nil {
		t.Fatal(err)
	}
	got := runStream(t, testConfig(4, 6), packets)
	if !statsEqual(got.Stats, want.Stats) {
		t.Errorf("stats: got %+v want %+v", got.Stats, want.Stats)
	}
	compareSeries(t, "global", want.Global, got.Global)
	pre, post := got.Global.Values[2], got.Global.Values[3]
	if post >= pre {
		t.Errorf("takedown week did not drop attacks: week3=%v week4=%v", pre, post)
	}
}

// TestIngestDatagramDecode checks the wire-format path: valid datagrams
// are decoded to the port's protocol, unknown ports and malformed payloads
// are counted and dropped.
func TestIngestDatagramDecode(t *testing.T) {
	in, err := New(testConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	victim := netip.MustParseAddr("10.1.2.3")
	base := testStart.Add(time.Hour)
	for i := 0; i < honeypot.AttackThreshold+2; i++ {
		d := Datagram{
			Time:    base.Add(time.Duration(i) * time.Second),
			Sensor:  0,
			Victim:  victim,
			Port:    protocols.NTP.Port(),
			Payload: protocols.NTP.Request(),
		}
		if err := in.IngestDatagram(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.IngestDatagram(Datagram{Time: base, Victim: victim, Port: 9999}); err == nil {
		t.Error("unknown port: want error")
	}
	if err := in.IngestDatagram(Datagram{
		Time: base, Victim: victim, Port: protocols.NTP.Port(), Payload: []byte("junk"),
	}); err == nil {
		t.Error("malformed payload: want error")
	}
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Packets != uint64(honeypot.AttackThreshold+2) {
		t.Errorf("packets: got %d", res.Stats.Packets)
	}
	if res.Stats.UnknownPort != 1 || res.Stats.Malformed != 1 {
		t.Errorf("drop counters: %+v", res.Stats)
	}
	if res.Stats.Attacks != 1 || res.Stats.Flows != 1 {
		t.Errorf("want one attack flow, got %+v", res.Stats)
	}
	if got := res.Protocol(protocols.NTP).Total(); got != 1 {
		t.Errorf("NTP series total: got %v", got)
	}
	if got := res.Country(geo.US).Total(); got != 1 {
		t.Errorf("US series total: got %v", got)
	}
}

// TestWatermarkExpiresIdleShards feeds one victim, then advances time via
// packets for a different victim (different shard) far past the gap: the
// idle shard's flow must close through the broadcast watermark alone,
// before Close.
func TestWatermarkExpiresIdleShards(t *testing.T) {
	cfg := testConfig(4, 2)
	cfg.BatchSize = 1
	cfg.WatermarkEvery = 1 // broadcast after every packet
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	idle := netip.MustParseAddr("10.0.0.1")
	busy := netip.MustParseAddr("11.0.0.1")
	// The test is only meaningful if the two victims land on different
	// shards: the idle one's flow must close through the broadcast alone.
	if shardFor(idle, cfg.Shards) == shardFor(busy, cfg.Shards) {
		t.Fatalf("victims %v and %v share shard %d; pick victims on different shards", idle, busy, shardFor(idle, cfg.Shards))
	}
	base := testStart.Add(time.Hour)
	for i := 0; i < honeypot.AttackThreshold+1; i++ {
		mustIngest(t, in, honeypot.Packet{
			Time: base.Add(time.Duration(i) * time.Second), Victim: idle,
			Proto: protocols.LDAP, Sensor: 0, Size: 64,
		})
	}
	// Push the watermark two gaps forward with traffic for another victim.
	for i := 0; i < 10; i++ {
		mustIngest(t, in, honeypot.Packet{
			Time: base.Add(2*honeypot.FlowGap + time.Duration(i)*time.Second), Victim: busy,
			Proto: protocols.DNS, Sensor: 1, Size: 64,
		})
	}
	// The idle victim's flow must close via the broadcast watermark alone,
	// while the ingestor is still running.
	deadline := time.Now().Add(5 * time.Second)
	for in.FlowsClosed() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("watermark did not close the idle shard's flow before Close")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Flows != 2 {
		t.Fatalf("flows: got %d want 2", res.Stats.Flows)
	}
	if res.Stats.Attacks != 2 {
		t.Fatalf("attacks: got %d want 2 (idle flow %d-packet, busy flow 10-packet)",
			res.Stats.Attacks, honeypot.AttackThreshold+1)
	}
}

func mustIngest(t *testing.T, in *Ingestor, p honeypot.Packet) {
	t.Helper()
	if err := in.Ingest(p); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfSpanAttacksCounted checks that attack flows outside the panel
// span are classified and counted but explicitly recorded as dropped from
// the weekly series.
func TestOutOfSpanAttacksCounted(t *testing.T) {
	in, err := New(testConfig(2, 1)) // panel covers one week
	if err != nil {
		t.Fatal(err)
	}
	victim := netip.MustParseAddr("10.3.4.5")
	late := testStart.AddDate(0, 0, 21) // three weeks past the span
	for i := 0; i < honeypot.AttackThreshold+1; i++ {
		mustIngest(t, in, honeypot.Packet{
			Time: late.Add(time.Duration(i) * time.Second), Victim: victim,
			Proto: protocols.LDAP, Sensor: 0, Size: 64,
		})
	}
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Attacks != 1 || res.Stats.OutOfSpan != 1 {
		t.Errorf("stats: %+v, want 1 attack and 1 out-of-span", res.Stats)
	}
	if got := res.Global.Total(); got != 0 {
		t.Errorf("global total: got %v, want 0 (flow is outside the panel)", got)
	}
}

// TestClosedIngestorRejects checks post-Close behaviour.
func TestClosedIngestorRejects(t *testing.T) {
	in, err := New(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if err := in.Ingest(honeypot.Packet{Time: testStart, Victim: netip.MustParseAddr("10.0.0.1")}); err != ErrClosed {
		t.Errorf("Ingest after Close: got %v want ErrClosed", err)
	}
	if _, err := in.Close(); err != ErrClosed {
		t.Errorf("double Close: got %v want ErrClosed", err)
	}
}

// TestConfigValidation covers the required-span errors.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing span: want error")
	}
	if _, err := New(Config{Start: testStart, End: testStart.AddDate(0, 0, -7)}); err == nil {
		t.Error("inverted span: want error")
	}
}

// TestShardForDeterministicAndBalanced pins the victim-to-shard routing:
// it is a pure function of the address, an IPv4 address and its
// IPv4-mapped IPv6 form route alike, and both sequential IPv4 victims
// and random IPv6 victims spread within ±2% of an even split.
func TestShardForDeterministicAndBalanced(t *testing.T) {
	v4 := netip.MustParseAddr("1.2.3.4")
	mapped := netip.MustParseAddr("::ffff:1.2.3.4")
	rng := rand.New(rand.NewPCG(24, 1))
	const victims = 65536
	seqV4 := make([]netip.Addr, victims)
	randV6 := make([]netip.Addr, victims)
	for i := range victims {
		seqV4[i] = netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		var b [16]byte
		binary.BigEndian.PutUint64(b[:8], rng.Uint64())
		binary.BigEndian.PutUint64(b[8:], rng.Uint64())
		randV6[i] = netip.AddrFrom16(b)
	}
	for _, n := range []int{1, 2, 3, 4} {
		if a, b := shardFor(v4, n), shardFor(mapped, n); a != b {
			t.Errorf("n=%d: %v routes to %d but %v to %d", n, v4, a, mapped, b)
		}
		for name, addrs := range map[string][]netip.Addr{"sequential IPv4": seqV4, "random IPv6": randV6} {
			counts := make([]int, n)
			for _, a := range addrs {
				s := shardFor(a, n)
				if s < 0 || s >= n {
					t.Fatalf("n=%d: %v routed to shard %d", n, a, s)
				}
				if again := shardFor(a, n); again != s {
					t.Fatalf("n=%d: %v routed to %d then %d", n, a, s, again)
				}
				counts[s]++
			}
			even := float64(victims) / float64(n)
			for s, c := range counts {
				if dev := math.Abs(float64(c)-even) / even; dev > 0.02 {
					t.Errorf("n=%d %s: shard %d holds %d victims, %.2f%% off the even %.0f", n, name, s, c, 100*dev, even)
				}
			}
		}
	}
}
