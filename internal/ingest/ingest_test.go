package ingest

import (
	"cmp"
	"fmt"
	"maps"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/market"
	"booters/internal/protocols"
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
	packets, err := SyntheticStream(StreamConfig{
		Seed:           7,
		Start:          testStart,
		Weeks:          weeks,
		Sensors:        6,
		AttacksPerWeek: attacksPerWeek,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	for c, ws := range want.ByCountry {
		compareSeries(t, "country "+c, ws, got.ByCountry[c])
	}
	for p, ws := range want.ByProtocol {
		compareSeries(t, "protocol "+p.String(), ws, got.ByProtocol[p])
	}
	for c, cp := range want.CountryProtocol {
		for p, ws := range cp {
			compareSeries(t, "country "+c+" protocol "+p.String(), ws, got.CountryProtocol[c][p])
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
	for c, ws := range res.ByCountry {
		cp, ok := res.CountryProtocol[c]
		if !ok {
			t.Fatalf("country %s missing from the breakdown", c)
		}
		sum := timeseries.NewSeries(ws.StartWeek, ws.Len())
		for _, s := range cp {
			if err := sum.AddSeries(s); err != nil {
				t.Fatal(err)
			}
		}
		compareSeries(t, "country "+c+" marginal", ws, sum)
	}
}

// TestStreamingMatchesBatchWithShocks replays a market takedown so the
// stream's volume drops mid-span, and checks equivalence plus the drop.
func TestStreamingMatchesBatchWithShocks(t *testing.T) {
	packets, err := SyntheticStream(StreamConfig{
		Seed:           11,
		Start:          testStart,
		Weeks:          6,
		AttacksPerWeek: 80,
		Shocks:         []market.Shock{{Week: 3, KillLargest: 4, KillFraction: 0.95, Permanent: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
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
	if got := res.ByProtocol[protocols.NTP].Total(); got != 1 {
		t.Errorf("NTP series total: got %v", got)
	}
	if got := res.ByCountry[geo.US].Total(); got != 1 {
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
	if _, err := SyntheticStream(StreamConfig{Start: testStart}); err == nil {
		t.Error("zero weeks: want error")
	}
}
