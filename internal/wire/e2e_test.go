package wire

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/obs/trace"
	"booters/internal/protocols"
	"booters/internal/scenario"
)

var testStart = time.Date(2018, time.October, 1, 0, 0, 0, 0, time.UTC)

// testPackets generates the market-driven synthetic stream the rest of
// the repo's equivalence tests use.
func testPackets(t testing.TB, weeks int, attacksPerWeek float64) []honeypot.Packet {
	t.Helper()
	run, err := scenario.Generate(scenario.Config{
		Seed:            21,
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
	return packets
}

// testCfg mirrors the ingest test configuration: small batches and
// frequent watermarks so short streams exercise the machinery.
func testCfg(shards, weeks int, unordered bool) ingest.Config {
	return ingest.Config{
		Shards:         shards,
		Start:          testStart,
		End:            testStart.AddDate(0, 0, 7*weeks-1),
		BatchSize:      32,
		WatermarkEvery: 128,
		Unordered:      unordered,
	}
}

// comparePanels asserts two results are byte-identical: same stats,
// same weekly series everywhere.
func comparePanels(t *testing.T, want, got *ingest.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("stats: got %+v want %+v", got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Global.Values, want.Global.Values) {
		t.Errorf("global series diverged")
	}
	for _, c := range geo.Countries() {
		if !reflect.DeepEqual(got.Country(c).Values, want.Country(c).Values) {
			t.Errorf("country %s series diverged", c)
		}
	}
	for _, p := range protocols.All() {
		if !reflect.DeepEqual(got.Protocol(p).Values, want.Protocol(p).Values) {
			t.Errorf("protocol %v series diverged", p)
		}
	}
	for _, c := range geo.Countries() {
		for _, p := range protocols.All() {
			if !reflect.DeepEqual(got.CountryProtocol(c, p).Values, want.CountryProtocol(c, p).Values) {
				t.Errorf("country %s protocol %v series diverged", c, p)
			}
		}
	}
}

// TestSensorCollectorPanelEquivalence is the tentpole guarantee: a
// synthetic stream shipped over loopback TCP through a sensor session
// into a rolling ingest pipeline yields a final panel byte-identical to
// the in-memory batch fold, ordered and unordered, at 1 and 4 shards.
func TestSensorCollectorPanelEquivalence(t *testing.T) {
	packets := testPackets(t, 3, 90)
	recs := ingest.Datagrams(packets)
	want, err := ingest.Batch(testCfg(1, 3, false), packets)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Attacks == 0 || want.Stats.Scans == 0 {
		t.Fatalf("degenerate batch reference: %+v", want.Stats)
	}
	for _, shards := range []int{1, 4} {
		for _, unordered := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/unordered=%v", shards, unordered), func(t *testing.T) {
				cfg := testCfg(shards, 3, unordered)
				cfg.Rolling = true
				in, err := ingest.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				reg := obs.NewRegistry()
				col, err := Listen("127.0.0.1:0", CollectorConfig{
					Ingest:  in,
					Token:   "s3cret",
					Metrics: reg,
				})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := Ship(SensorConfig{
					Addr:         col.Addr().String(),
					Sensor:       42,
					Token:        "s3cret",
					Feed:         NewSliceFeed(recs),
					BatchRecords: 64,
					Metrics:      reg,
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Acked != uint64(len(recs)) {
					t.Fatalf("acked %d of %d records", rep.Acked, len(recs))
				}
				if got := col.Offsets()[42]; got != uint64(len(recs)) {
					t.Fatalf("collector offset %d, want %d", got, len(recs))
				}
				col.Close()
				got, err := in.Close()
				if err != nil {
					t.Fatal(err)
				}
				comparePanels(t, want, got)
				// The pipeline saw each record exactly once.
				if fresh, ok := reg.Sum("booters_wire_records_total"); !ok || fresh != float64(len(recs)) {
					t.Fatalf("records_total = %v (ok=%v), want %d", fresh, ok, len(recs))
				}
				// The rolling path actually emitted: a final snapshot
				// exists and matches the batch global series.
				snap := in.Snapshot()
				if snap == nil || !snap.Final {
					t.Fatalf("no final rolling snapshot")
				}
			})
		}
	}
}

// TestWireTraceSpanChainIntegrity is the cross-process tracing property
// test: with one tracer shared across sensor, collector and pipeline
// (the loopback stand-in for per-process tracers) and SampleEvery=1,
// every recorded span's parent must exist under the same trace, and at
// least one complete sensor.batch → wire.batch → ingest.enqueue →
// ingest.apply → week.seal → snapshot.publish chain must be
// recoverable by walking Parent links.
func TestWireTraceSpanChainIntegrity(t *testing.T) {
	packets := testPackets(t, 2, 60)
	recs := ingest.Datagrams(packets)
	tr := trace.New(trace.Config{SampleEvery: 1, RingSize: 1 << 14, SlowThreshold: -1})
	cfg := testCfg(2, 2, true)
	cfg.Rolling = true
	cfg.Trace = tr
	in, err := ingest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col, err := Listen("127.0.0.1:0", CollectorConfig{Ingest: in, Token: "trace", Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Ship(SensorConfig{
		Addr:         col.Addr().String(),
		Sensor:       42,
		Token:        "trace",
		Feed:         NewSliceFeed(recs),
		BatchRecords: 32,
		Trace:        tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acked != uint64(len(recs)) {
		t.Fatalf("acked %d of %d records", rep.Acked, len(recs))
	}
	col.Close()
	if _, err := in.Close(); err != nil {
		t.Fatal(err)
	}

	if d := tr.Drops(); d != 0 {
		t.Fatalf("%d spans dropped; ring sized to hold everything", d)
	}
	spans := tr.Snapshot()
	byID := make(map[uint64]trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %s (trace %x) references missing parent %x", s.Name, s.Trace, s.Parent)
		}
		if p.Trace != s.Trace {
			t.Fatalf("span %s in trace %x has parent %s in trace %x", s.Name, s.Trace, p.Name, p.Trace)
		}
	}
	want := []string{"snapshot.publish", "week.seal", "ingest.apply", "ingest.enqueue", "wire.batch", "sensor.batch"}
	seen := map[string]bool{}
	found := false
	for _, s := range spans {
		seen[s.Name] = true
		if s.Name != want[0] {
			continue
		}
		var chain []string
		for cur, ok := s, true; ok; cur, ok = byID[cur.Parent] {
			chain = append(chain, cur.Name)
			if cur.Parent == 0 {
				break
			}
		}
		if reflect.DeepEqual(chain, want) {
			found = true
			break
		}
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("no %s span recorded", name)
		}
	}
	if !found {
		t.Fatalf("no complete sensor→snapshot span chain recovered from %d spans", len(spans))
	}
}

// TestSensorCollectorMultiSensor runs three concurrent sensors into one
// unordered pipeline and checks the merged panel against the batch fold
// — the paper's multi-vantage collection in miniature.
func TestSensorCollectorMultiSensor(t *testing.T) {
	packets := testPackets(t, 2, 60)
	want, err := ingest.Batch(testCfg(1, 2, false), packets)
	if err != nil {
		t.Fatal(err)
	}
	// Split the stream by sensor ID so each wire sensor ships its own
	// time-ordered slice, like a real fleet would.
	recs := ingest.Datagrams(packets)
	bySensor := map[uint32][]ingest.Datagram{}
	for _, d := range recs {
		bySensor[uint32(d.Sensor)] = append(bySensor[uint32(d.Sensor)], d)
	}
	if len(bySensor) < 2 {
		t.Fatalf("stream uses %d sensors, need several", len(bySensor))
	}
	in, err := ingest.New(testCfg(4, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	col, err := Listen("127.0.0.1:0", CollectorConfig{Ingest: in, Token: "fleet"})
	if err != nil {
		t.Fatal(err)
	}
	// A sensor that connects after another has advanced the watermark
	// past its records would, by design, have them counted Late. The
	// fold expects none, so a gate source pins the watermark until
	// every sensor has shipped, whatever order they dial in.
	gate := in.RegisterSource()
	errc := make(chan error, len(bySensor))
	for id, feed := range bySensor {
		go func(id uint32, feed []ingest.Datagram) {
			rep, err := Ship(SensorConfig{
				Addr:         col.Addr().String(),
				Sensor:       id,
				Token:        "fleet",
				Feed:         NewSliceFeed(feed),
				BatchRecords: 32,
			})
			if err == nil && rep.Acked != uint64(len(feed)) {
				err = fmt.Errorf("sensor %d acked %d of %d", id, rep.Acked, len(feed))
			}
			errc <- err
		}(id, feed)
	}
	for range bySensor {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	gate.Close()
	col.Close()
	got, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	comparePanels(t, want, got)
}
