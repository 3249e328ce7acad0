package booters

// Streaming ingestion benchmarks, in bench_test.go's reporting style: each
// reports packets/sec (and packets/op) so BENCH_*.json runs can track
// pipeline throughput alongside the model-fitting exhibits. Run with:
//
//	go test -bench Ingest -benchmem
//
// The replay is the ~1M-packet stream of a market scenario, generated once
// per process. Shard scaling (1 vs 4 vs GOMAXPROCS) is real
// parallelism: on a single-core host the multi-shard numbers measure
// routing overhead only, on multicore they measure speedup.

import (
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/obs/trace"
	"booters/internal/protocols"
	"booters/internal/scenario"
	"booters/internal/spool"
)

var (
	ingestStreamOnce sync.Once
	ingestStream     []honeypot.Packet
	ingestStreamErr  error
)

// ingestBenchStart anchors the benchmark replay window.
var ingestBenchStart = time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC)

const ingestBenchWeeks = 26

// benchIngestStream generates (once) the shared ~1M-packet replay.
func benchIngestStream(b *testing.B) []honeypot.Packet {
	b.Helper()
	ingestStreamOnce.Do(func() {
		var run *scenario.Run
		run, ingestStreamErr = scenario.Generate(scenario.Config{
			Seed:            DefaultSeed,
			Start:           ingestBenchStart,
			Weeks:           ingestBenchWeeks,
			Sensors:         8,
			BaselineAttacks: 2250,
			Market:          &scenario.MarketDynamics{},
		})
		if ingestStreamErr == nil {
			ingestStream = run.Packets
		}
	})
	if ingestStreamErr != nil {
		b.Fatal(ingestStreamErr)
	}
	return ingestStream
}

// benchIngestConfig is the pipeline configuration under benchmark.
func benchIngestConfig(shards int) ingest.Config {
	return ingest.Config{
		Shards: shards,
		Start:  ingestBenchStart,
		End:    ingestBenchStart.AddDate(0, 0, 7*ingestBenchWeeks-1),
	}
}

// runIngestBenchmark replays the stream through a fresh pipeline per
// iteration and reports throughput. withMetrics attaches a full obs
// registry — the per-packet hot path then pays its one uncontended
// atomic add — so benchjson can gate the instrumentation overhead
// (BenchmarkIngest1Shard vs BenchmarkIngest1ShardMetrics, ≤3% ns/op).
// withTrace attaches a sampling tracer (1 batch in 16) the same way, so
// the same gate covers the flight recorder's sampled overhead.
func runIngestBenchmark(b *testing.B, shards int, withMetrics, withTrace bool) {
	packets := benchIngestStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchIngestConfig(shards)
		if withMetrics {
			cfg.Metrics = obs.NewRegistry()
		}
		if withTrace {
			// Slow-span promotion off: the gate measures steady sampling
			// cost, not one scheduler hiccup's log line.
			cfg.Trace = trace.New(trace.Config{SampleEvery: 16, SlowThreshold: -1})
		}
		in, err := ingest.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range packets {
			if err := in.Ingest(p); err != nil {
				b.Fatal(err)
			}
		}
		res, err := in.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Attacks == 0 {
			b.Fatal("no attacks classified")
		}
		if withMetrics {
			if got, _ := cfg.Metrics.Sum("booters_ingest_packets_total"); got != float64(len(packets)) {
				b.Fatalf("metrics counted %v packets, want %d", got, len(packets))
			}
		}
		if withTrace {
			if len(cfg.Trace.Snapshot()) == 0 {
				b.Fatal("tracing on but no spans recorded")
			}
		}
	}
	b.ReportMetric(float64(len(packets))*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
	b.ReportMetric(float64(len(packets)), "packets/op")
}

func BenchmarkIngest1Shard(b *testing.B) { runIngestBenchmark(b, 1, false, false) }
func BenchmarkIngest4Shard(b *testing.B) { runIngestBenchmark(b, 4, false, false) }
func BenchmarkIngestMaxShard(b *testing.B) {
	runIngestBenchmark(b, runtime.GOMAXPROCS(0), false, false)
}

// Metrics-on twins: the same replay with the registry attached. CI's
// bench smoke compares these against the plain runs via benchjson.
func BenchmarkIngest1ShardMetrics(b *testing.B) { runIngestBenchmark(b, 1, true, false) }
func BenchmarkIngest4ShardMetrics(b *testing.B) { runIngestBenchmark(b, 4, true, false) }

// Tracing-on twins: the same replay with the flight recorder sampling 1
// batch in 16. CI gates BenchmarkIngest1Shard vs
// BenchmarkIngest1ShardTraced the same way (≤3% ns/op).
func BenchmarkIngest1ShardTraced(b *testing.B) { runIngestBenchmark(b, 1, false, true) }
func BenchmarkIngest4ShardTraced(b *testing.B) { runIngestBenchmark(b, 4, false, true) }

var (
	paperScaleOnce    sync.Once
	paperScaleStream  []honeypot.Packet
	paperScaleStreamE error
)

// paperScaleWeeks is the span of the paper-volume rolling benchmark.
const paperScaleWeeks = 4

// paperScalePackets builds (once) a stream at the paper's weekly attack
// volume, scenario.PaperGlobalScale (45,000 attacks a week),
// over paperScaleWeeks. Each attack is the smallest flow the classifier
// books, AttackThreshold+1 packets at one sensor, so the stream carries
// as many bookings per packet as it can: shard work per booking is at
// its lowest and any per-booking cost of the week seal at its most
// visible. Victims are unique per attack, spread over every country and
// protocol, with one attack in 16 on a dual-attributed block.
func paperScalePackets(b *testing.B) []honeypot.Packet {
	b.Helper()
	paperScaleOnce.Do(func() {
		perWeek := int(scenario.PaperGlobalScale)
		tbl := geo.NewTable()
		countries, protos := geo.Countries(), protocols.All()
		rng := rand.New(rand.NewPCG(uint64(DefaultSeed), 0))
		const perAttack = honeypot.AttackThreshold + 1
		window := 7*24*time.Hour - 20*time.Minute - perAttack*time.Second
		out := make([]honeypot.Packet, 0, paperScaleWeeks*perWeek*perAttack)
		for i := 0; i < paperScaleWeeks*perWeek; i++ {
			week := ingestBenchStart.AddDate(0, 0, 7*(i/perWeek))
			first := week.Add(10*time.Minute + time.Duration(rng.Int64N(int64(window))))
			victim, err := tbl.AddrFor(countries[rng.IntN(len(countries))], uint32(i))
			if err != nil {
				paperScaleStreamE = err
				return
			}
			if i%16 == 0 {
				victim = tbl.DualAddrFor(i, uint16(i/16))
			}
			proto, sensor := protos[rng.IntN(len(protos))], rng.IntN(8)
			for k := 0; k < perAttack; k++ {
				out = append(out, honeypot.Packet{
					Time: first.Add(time.Duration(k) * time.Second), Victim: victim,
					Proto: proto, Sensor: sensor, Size: 64,
				})
			}
		}
		slices.SortStableFunc(out, func(x, y honeypot.Packet) int { return x.Time.Compare(y.Time) })
		paperScaleStream = out
	})
	if paperScaleStreamE != nil {
		b.Fatal(paperScaleStreamE)
	}
	return paperScaleStream
}

// BenchmarkIngestRollingPaperScale runs a rolling 4-shard pipeline at the
// paper's weekly attack volume, the regime where the attacks booked
// between two week seals far outnumber the panel's cells, so a seal whose
// cost grows with attack volume shows here first. Besides throughput it
// reports, per published snapshot, the seal-to-publish latency (seal-ms:
// the booters_ingest_seal_publish_seconds histogram's mean) and, from the
// always-recorded trace spans, the mean seal (seal-ns, week.seal: a shard
// adding its growth into the unpublished panel) and publish (publish-ns,
// snapshot.publish: the sealing shard's swap and subscriber callbacks).
func BenchmarkIngestRollingPaperScale(b *testing.B) {
	packets := paperScalePackets(b)
	var publishes uint64
	var lag time.Duration
	spans := map[string]*struct{ n, ns int64 }{"week.seal": {}, "snapshot.publish": {}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := ingest.Config{
			Shards:  4,
			Start:   ingestBenchStart,
			End:     ingestBenchStart.AddDate(0, 0, 7*paperScaleWeeks-1),
			Rolling: true,
			Metrics: obs.NewRegistry(),
			// Seals and publishes are always recorded; sampling almost no
			// batch keeps them from being crowded out of the rings.
			Trace: trace.New(trace.Config{SampleEvery: 1 << 30, SlowThreshold: -1}),
		}
		in, err := ingest.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range packets {
			if err := in.Ingest(p); err != nil {
				b.Fatal(err)
			}
		}
		res, err := in.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Attacks == 0 {
			b.Fatal("no attacks classified")
		}
		h := cfg.Metrics.Histogram("booters_ingest_seal_publish_seconds", "")
		publishes += h.Count()
		lag += h.Sum()
		for _, sp := range cfg.Trace.Snapshot() {
			if t := spans[sp.Name]; t != nil {
				t.n++
				t.ns += sp.Dur
			}
		}
	}
	b.StopTimer()
	if publishes == 0 || spans["week.seal"].n == 0 || spans["snapshot.publish"].n == 0 {
		b.Fatal("no week sealed before Close")
	}
	b.ReportMetric(float64(lag.Nanoseconds())/float64(publishes)/1e6, "seal-ms")
	b.ReportMetric(float64(spans["week.seal"].ns)/float64(spans["week.seal"].n), "seal-ns")
	b.ReportMetric(float64(spans["snapshot.publish"].ns)/float64(spans["snapshot.publish"].n), "publish-ns")
	b.ReportMetric(float64(publishes)/float64(b.N), "publishes/op")
	b.ReportMetric(float64(len(packets))*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
}

// BenchmarkIngestBatchBaseline runs the same replay through the
// single-threaded batch reference — the number the sharded pipeline has to
// beat on multicore hardware.
func BenchmarkIngestBatchBaseline(b *testing.B) {
	packets := benchIngestStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ingest.Batch(benchIngestConfig(1), packets)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Attacks == 0 {
			b.Fatal("no attacks classified")
		}
	}
	b.ReportMetric(float64(len(packets))*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
	b.ReportMetric(float64(len(packets)), "packets/op")
}

// Fan-out benchmarks: the same replay with 1, 2 and 3 consumers of closed
// flows, all at 4 shards — the weekly panel alone, then a MitigationSink
// beside it, then an NDJSONSink too. The acceptance bar is <10% throughput loss for ≥2 sinks
// versus the panel-only path — per-shard sink branches keep the fan-out
// off the packet hot path, so the extra cost is per closed flow, not per
// packet.

// runIngestFanout replays the shared stream with extra sinks built fresh
// per iteration (a sink instance serves one run).
func runIngestFanout(b *testing.B, mkSinks func() []ingest.Sink) {
	packets := benchIngestStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchIngestConfig(4)
		cfg.Sinks = mkSinks()
		in, err := ingest.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range packets {
			if err := in.Ingest(p); err != nil {
				b.Fatal(err)
			}
		}
		res, err := in.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Attacks == 0 {
			b.Fatal("no attacks classified")
		}
	}
	b.ReportMetric(float64(len(packets))*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
	b.ReportMetric(float64(len(packets)), "packets/op")
}

func BenchmarkIngestFanoutPanelOnly(b *testing.B) {
	runIngestFanout(b, func() []ingest.Sink { return nil })
}

func BenchmarkIngestFanout2Sinks(b *testing.B) {
	runIngestFanout(b, func() []ingest.Sink {
		return []ingest.Sink{ingest.NewMitigationSink(3)}
	})
}

func BenchmarkIngestFanout3Sinks(b *testing.B) {
	runIngestFanout(b, func() []ingest.Sink {
		return []ingest.Sink{ingest.NewMitigationSink(3), ingest.NewNDJSONSink(io.Discard)}
	})
}

// benchSpool records the shared stream to an on-disk spool under the
// benchmark's temp dir (auto-removed when it finishes), untimed, so the
// replay benchmarks measure disk replay rather than recording. Segments
// rotate at 8 MiB instead of the 64 MiB default so the ~66 MB stream
// spans enough segments (~9 raw) that the multi-reader benchmarks
// measure real fan-out, not a two-segment race.
func benchSpool(b *testing.B, codecName string) string {
	b.Helper()
	packets := benchIngestStream(b)
	codec, err := spool.CodecByName(codecName)
	if err != nil {
		b.Fatal(err)
	}
	dir := filepath.Join(b.TempDir(), "spool")
	w, err := spool.Create(dir, spool.Options{Codec: codec, SegmentBytes: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range ingest.Datagrams(packets) {
		if err := w.Append(d); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// reportSpoolFootprint attaches the on-disk cost to a spool benchmark:
// stored bytes/packet, which is numerically MB per million packets — the
// ROADMAP's cold-capture footprint metric.
func reportSpoolFootprint(b *testing.B, dir string, packets uint64) {
	b.Helper()
	idx, err := spool.LoadIndex(dir)
	if err != nil {
		b.Fatal(err)
	}
	var stored uint64
	for _, s := range idx.Segments {
		stored += s.StoredBytes
	}
	b.ReportMetric(float64(stored)/float64(packets), "bytes/packet")
}

// runSpoolRecord measures spool write throughput (datagram encode +
// block framing + optional compression + buffered sequential write) and
// reports the resulting bytes/packet footprint.
func runSpoolRecord(b *testing.B, codecName string) {
	datagrams := ingest.Datagrams(benchIngestStream(b))
	var lastDir string
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp(b.TempDir(), "spool")
		if err != nil {
			b.Fatal(err)
		}
		codec, err := spool.CodecByName(codecName)
		if err != nil {
			b.Fatal(err)
		}
		w, err := spool.Create(dir, spool.Options{Codec: codec})
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range datagrams {
			if err := w.Append(d); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		lastDir = dir
	}
	b.StopTimer()
	b.ReportMetric(float64(len(datagrams))*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
	b.ReportMetric(float64(len(datagrams)), "packets/op")
	reportSpoolFootprint(b, lastDir, uint64(len(datagrams)))
}

func BenchmarkSpoolRecord(b *testing.B)    { runSpoolRecord(b, "none") }
func BenchmarkSpoolRecordLZ4(b *testing.B) { runSpoolRecord(b, "lz4") }

// runSpoolRead measures raw replay off disk — decode only, no pipeline
// behind it — at the given reader count.
func runSpoolRead(b *testing.B, codecName string, workers int) {
	dir := benchSpool(b, codecName)
	want := uint64(len(benchIngestStream(b)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n uint64
		stats, err := spool.ReplayWindow(dir, spool.ReplayOptions{Workers: workers}, func(ingest.Datagram) error { n++; return nil })
		if err != nil {
			b.Fatal(err)
		}
		if n != want || stats.DataLost() {
			b.Fatalf("replayed %d datagrams (want %d), torn=%v", n, want, stats.Torn)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(want)*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
	b.ReportMetric(float64(want), "packets/op")
	reportSpoolFootprint(b, dir, want)
}

func BenchmarkSpoolRead(b *testing.B)            { runSpoolRead(b, "none", 1) }
func BenchmarkSpoolRead4Readers(b *testing.B)    { runSpoolRead(b, "none", 4) }
func BenchmarkSpoolReadLZ4(b *testing.B)         { runSpoolRead(b, "lz4", 1) }
func BenchmarkSpoolReadLZ44Readers(b *testing.B) { runSpoolRead(b, "lz4", 4) }

// runSpoolReplay measures the full record-once-replay-many path: the
// spooled capture streamed from disk — sequentially or via parallel
// segment readers, raw or compressed — through protocol decode and the
// sharded pipeline into the weekly panel. With tolerant, the pipeline is
// order-tolerant (interval-merge flow tables) and the replay's
// OnWatermark drives its low-watermark source, the wiring
// ReplaySpoolWindow uses for such a pipeline.
func runSpoolReplay(b *testing.B, codecName string, workers int, tolerant bool) {
	dir := benchSpool(b, codecName)
	total := uint64(len(benchIngestStream(b)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchIngestConfig(runtime.GOMAXPROCS(0))
		cfg.Unordered = tolerant
		in, err := ingest.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		opts := spool.ReplayOptions{Workers: workers}
		var src *ingest.Source
		if tolerant {
			src = in.RegisterSource()
			opts.OnWatermark = src.Advance
		}
		_, err = spool.ReplayWindow(dir, opts, func(d ingest.Datagram) error {
			in.IngestDatagram(d)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if src != nil {
			src.Close()
		}
		res, err := in.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Packets != total {
			b.Fatalf("replayed %d packets, want %d (late=%d)", res.Stats.Packets, total, res.Stats.Late)
		}
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
	b.ReportMetric(float64(total), "packets/op")
}

func BenchmarkSpoolReplay(b *testing.B)                 { runSpoolReplay(b, "none", 1, false) }
func BenchmarkSpoolReplay4Readers(b *testing.B)         { runSpoolReplay(b, "none", 4, false) }
func BenchmarkSpoolReplayLZ4(b *testing.B)              { runSpoolReplay(b, "lz4", 1, false) }
func BenchmarkSpoolReplayLZ44Readers(b *testing.B)      { runSpoolReplay(b, "lz4", 4, false) }
func BenchmarkSpoolReplayTolerant(b *testing.B)         { runSpoolReplay(b, "none", 1, true) }
func BenchmarkSpoolReplayTolerant4Readers(b *testing.B) { runSpoolReplay(b, "none", 4, true) }

// BenchmarkIngestSteadyState measures the per-packet cost of an
// already-running pipeline: one Ingestor serves every iteration, so the
// per-run setup the other ingest benchmarks pay (shard spin-up, panel
// series allocation) sits outside the timer and allocs/op reads the
// steady-state figure the zero-alloc work targets. The stream is replayed
// cyclically with a time shift per lap to keep packet times ascending for
// the ordered aggregator.
func BenchmarkIngestSteadyState(b *testing.B) {
	packets := benchIngestStream(b)
	span := packets[len(packets)-1].Time.Sub(packets[0].Time) + 24*time.Hour
	in, err := ingest.New(benchIngestConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	j, shift := 0, time.Duration(0)
	for i := 0; i < b.N; i++ {
		p := packets[j]
		p.Time = p.Time.Add(shift)
		if err := in.Ingest(p); err != nil {
			b.Fatal(err)
		}
		if j++; j == len(packets) {
			j, shift = 0, shift+span
		}
	}
	b.StopTimer()
	if _, err := in.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
}

// BenchmarkSpoolReadSteadyRecord measures one sequential Next() on a
// codec-none spool — on unix this is the mmap zero-copy path, with the
// payload borrowed straight from the mapped segment. The reader is
// reopened when the spool is exhausted, amortised over ~1M records per
// pass, so allocs/op reads the per-record steady state.
func BenchmarkSpoolReadSteadyRecord(b *testing.B) {
	dir := benchSpool(b, "none")
	r, err := spool.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := r.Next()
		if err == io.EOF {
			r.Close()
			if r, err = spool.Open(dir); err != nil {
				b.Fatal(err)
			}
			d, err = r.Next()
		}
		if err != nil {
			b.Fatal(err)
		}
		sink += len(d.Payload)
	}
	b.StopTimer()
	r.Close()
	if sink == 0 {
		b.Fatal("no payload bytes read")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
}

// BenchmarkIngestWireDecode replays wire-format datagrams so the per-packet
// protocol decode (port lookup + request validation) is on the measured
// path.
func BenchmarkIngestWireDecode(b *testing.B) {
	packets := benchIngestStream(b)
	datagrams := ingest.Datagrams(packets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := ingest.New(benchIngestConfig(runtime.GOMAXPROCS(0)))
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range datagrams {
			if err := in.IngestDatagram(d); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := in.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(datagrams))*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
	b.ReportMetric(float64(len(datagrams)), "packets/op")
}
