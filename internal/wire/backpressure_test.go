package wire

import (
	"testing"
	"time"

	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/scenario"
)

// blockSink parks shard workers in Consume until release is closed —
// the deterministic stand-in for a slow downstream consumer.
type blockSink struct {
	release chan struct{}
	entered chan struct{}
}

func newBlockSink() *blockSink {
	return &blockSink{release: make(chan struct{}), entered: make(chan struct{}, 1)}
}

// Open hands every shard a branch that blocks.
func (s *blockSink) Open(cfg *ingest.Config, shards int) ([]ingest.SinkBranch, error) {
	br := make([]ingest.SinkBranch, shards)
	for i := range br {
		br[i] = &blockBranch{s: s}
	}
	return br, nil
}

// Flush is a no-op; the sink exists only to stall.
func (s *blockSink) Flush() error { return nil }

type blockBranch struct{ s *blockSink }

// Consume signals the first arrival, then parks until released.
func (b *blockBranch) Consume(f *honeypot.Flow, c honeypot.Classification) error {
	select {
	case b.s.entered <- struct{}{}:
	default:
	}
	<-b.s.release
	return nil
}

// backpressureRecords builds a single-victim stream whose second record
// closes the first flow (15-minute gap rule), parking the worker in the
// blocking sink while `extras` more records pile into the shard queue.
func backpressureRecords(extras int) []ingest.Datagram {
	packets := []honeypot.Packet{}
	run, err := scenario.Generate(scenario.Config{
		Seed: 3, Start: testStart, Weeks: 1, Sensors: 2, BaselineAttacks: 5,
		Market: &scenario.MarketDynamics{},
	})
	if err != nil || len(run.Packets) == 0 {
		panic("synthetic stream failed")
	}
	tmpl := run.Packets[0]
	tmpl.Sensor = 7
	at := func(d time.Duration) honeypot.Packet {
		p := tmpl
		p.Time = testStart.Add(time.Hour + d)
		return p
	}
	packets = append(packets, at(0), at(20*time.Minute))
	for i := 0; i < extras; i++ {
		packets = append(packets, at(21*time.Minute+time.Duration(i)*time.Second))
	}
	return ingest.Datagrams(packets)
}

// backpressureCfg is a pipeline built to stall instantly: one shard,
// one-packet batches, a two-batch queue, watermarks effectively off.
func backpressureCfg(policy ingest.ShedPolicy, sink ingest.Sink) ingest.Config {
	cfg := testCfg(1, 2, false)
	cfg.BatchSize = 1
	cfg.QueueDepth = 2
	cfg.WatermarkEvery = 1 << 30
	cfg.Shed = policy
	cfg.Sinks = []ingest.Sink{sink}
	return cfg
}

// TestStalledCollectorShedsPerSensor stalls the pipeline behind a
// blocking sink under ShedDropNewest: the session must keep acking (the
// drop policy never blocks) while the overflow lands in Stats.Shed,
// attributed to the shipping sensor.
func TestStalledCollectorShedsPerSensor(t *testing.T) {
	sink := newBlockSink()
	in, err := ingest.New(backpressureCfg(ingest.ShedDropNewest, sink))
	if err != nil {
		t.Fatal(err)
	}
	col, err := Listen("127.0.0.1:0", CollectorConfig{Ingest: in, Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	recs := backpressureRecords(32)
	rep, err := Ship(SensorConfig{
		Addr:         col.Addr().String(),
		Sensor:       7,
		Token:        "tok",
		Feed:         NewSliceFeed(recs),
		BatchRecords: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acked != uint64(len(recs)) {
		t.Fatalf("acked %d of %d: a drop policy must never stall the session", rep.Acked, len(recs))
	}
	close(sink.release)
	col.Close()
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Shed == 0 {
		t.Fatal("nothing shed despite a parked worker and a full queue")
	}
	if got := res.Stats.ShedBySensor[7]; got != res.Stats.Shed {
		t.Fatalf("ShedBySensor[7] = %d, Shed = %d — drops misattributed", got, res.Stats.Shed)
	}
	if res.Stats.Packets+res.Stats.Shed != uint64(len(recs)) {
		t.Fatalf("packets %d + shed %d != %d records", res.Stats.Packets, res.Stats.Shed, len(recs))
	}
}

// TestStalledCollectorBlocksUnderShedBlock stalls the same pipeline
// under ShedBlock: backpressure must reach the sensor (acks stop short
// of the stream's end while the worker is parked) and resolve without a
// single dropped packet once the consumer recovers.
func TestStalledCollectorBlocksUnderShedBlock(t *testing.T) {
	sink := newBlockSink()
	in, err := ingest.New(backpressureCfg(ingest.ShedBlock, sink))
	if err != nil {
		t.Fatal(err)
	}
	col, err := Listen("127.0.0.1:0", CollectorConfig{Ingest: in, Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	recs := backpressureRecords(8)
	type result struct {
		rep ShipReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := Ship(SensorConfig{
			Addr:         col.Addr().String(),
			Sensor:       7,
			Token:        "tok",
			Feed:         NewSliceFeed(recs),
			BatchRecords: 1,
			Heartbeat:    2 * time.Second, // patient: the block is the point
		})
		done <- result{rep, err}
	}()

	<-sink.entered // the worker is parked in the sink
	time.Sleep(150 * time.Millisecond)
	if off := col.Offsets()[7]; off >= uint64(len(recs)) {
		t.Fatalf("collector acked everything (%d) while its worker was parked — no backpressure", off)
	}
	select {
	case r := <-done:
		t.Fatalf("ship returned mid-stall: %+v, %v", r.rep, r.err)
	default:
	}

	close(sink.release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.rep.Acked != uint64(len(recs)) {
		t.Fatalf("acked %d of %d after release", r.rep.Acked, len(recs))
	}
	col.Close()
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Shed != 0 {
		t.Fatalf("ShedBlock dropped %d packets", res.Stats.Shed)
	}
	if res.Stats.Packets != uint64(len(recs)) {
		t.Fatalf("packets %d, want %d", res.Stats.Packets, len(recs))
	}
}
