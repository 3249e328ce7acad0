package booters

// Serving-layer benchmarks, in bench_ingest_test.go's reporting style:
// concurrent readers drive the query engine (and, separately, the HTTP
// face) against a pipeline that is being fed at full speed the whole
// time, reporting queries/sec. The reader-count ladder demonstrates that
// snapshot reads scale with readers — the read path is one atomic load
// plus arithmetic on an immutable snapshot, so added readers contend on
// nothing (on a single-core runner the ladder measures scheduling
// overhead only, as with the ingest shard ladder). Run with:
//
//	go test -bench Serve -benchmem
//
// BenchmarkIngestRolling* replay the shared stream through a rolling
// pipeline with a server attached but idle, against BenchmarkIngest4Shard
// as the baseline: the acceptance bar is that idle serving costs the
// ingest hot path no more than ~5% (the rolling machinery is one
// week-boundary check per watermark envelope plus a clone per sealed
// week, nothing per packet).

import (
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"booters/internal/ingest"
	"booters/internal/serve"
)

// benchServe is a running serving benchmark fixture: a rolling pipeline
// with a live HTTP server attached and a background feeder keeping the
// ingest hot.
type benchServe struct {
	in   *ingest.Ingestor
	addr string

	stopFeed func() // stop the feeder (idempotent teardown step 1)
	teardown func() // stop everything: feeder, pipeline, server
}

// benchServeStart starts a rolling pipeline over the shared bench stream
// with a live server attached, pre-feeds enough of the stream that a
// sealed snapshot is being served, and keeps feeding the remainder in
// the background (re-looping with shifted timestamps so the pipeline
// stays hot) until stopped.
func benchServeStart(b *testing.B) *benchServe {
	b.Helper()
	packets := benchIngestStream(b)
	cfg := benchIngestConfig(4)
	cfg.Rolling = true
	in, err := ingest.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := Serve(in, "127.0.0.1:0", "")
	if err != nil {
		b.Fatal(err)
	}

	// Pre-feed until a sealed snapshot is live, so the benchmark loop
	// queries real data from its first iteration.
	pre := 0
	for _, p := range packets {
		if err := in.Ingest(p); err != nil {
			b.Fatal(err)
		}
		pre++
		if pre%8192 == 0 {
			if snap := in.Snapshot(); snap != nil && snap.Sealed {
				break
			}
		}
	}
	if snap := in.Snapshot(); snap == nil || !snap.Sealed {
		b.Fatal("pre-feed never sealed a week")
	}

	// Hot ingest: keep feeding, looping the stream with shifted
	// timestamps so every packet still costs full aggregation work.
	var stopped atomic.Bool
	feederDone := make(chan struct{})
	go func() {
		defer close(feederDone)
		span := packets[len(packets)-1].Time.Sub(packets[0].Time) + time.Hour
		var lap time.Duration
		rest := packets[pre:]
		for {
			for _, p := range rest {
				if stopped.Load() {
					return
				}
				p.Time = p.Time.Add(lap)
				if err := in.Ingest(p); err != nil {
					return
				}
			}
			rest = packets
			lap += span
		}
	}()
	bs := &benchServe{in: in, addr: srv.Addr()}
	bs.stopFeed = func() {
		if !stopped.Swap(true) {
			<-feederDone
		}
	}
	bs.teardown = func() {
		bs.stopFeed()
		srv.Close()
		in.Close()
	}
	return bs
}

// runServeQueryBench drives the engine's query mix from parallel readers
// while the feeder runs, reporting queries/sec. readers scales the
// goroutine count via SetParallelism (readers × GOMAXPROCS workers).
func runServeQueryBench(b *testing.B, readers int) {
	bs := benchServeStart(b)
	defer bs.teardown()
	eng := ingestServeEngine(b, bs.in)
	b.ReportAllocs()
	b.ResetTimer()
	b.SetParallelism(readers)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			switch i % 3 {
			case 0:
				if s, err := eng.Series("", ""); err != nil || s.Len() == 0 {
					b.Errorf("series: %v", err)
					return
				}
			case 1:
				if st := eng.Status(); st.Seq == 0 {
					b.Error("status lost the snapshot")
					return
				}
			case 2:
				if rows, err := eng.TopCountries(5); err != nil || len(rows) == 0 {
					b.Errorf("top: %v", err)
					return
				}
			}
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// ingestServeEngine builds a second engine over the ingestor's snapshot
// feed for direct (non-HTTP) query benchmarking. The ingestor publishes
// to both the HTTP server's store and this one; they are independent
// readers of the same immutable snapshots.
func ingestServeEngine(b *testing.B, in *ingest.Ingestor) *serve.Engine {
	b.Helper()
	eng := serve.NewEngine(serve.Config{Ingest: in})
	if err := in.OnSnapshot(eng.Publish); err != nil {
		b.Fatal(err)
	}
	eng.Publish(in.Snapshot())
	return eng
}

func BenchmarkServeQuery1Reader(b *testing.B)   { runServeQueryBench(b, 1) }
func BenchmarkServeQuery4Readers(b *testing.B)  { runServeQueryBench(b, 4) }
func BenchmarkServeQuery16Readers(b *testing.B) { runServeQueryBench(b, 16) }

// runServeHTTPBench measures the full HTTP round trip (request parse,
// engine query, hand-rolled JSON encode) from 4× parallel keep-alive
// clients. With hot set the ingest feeder competes for cores the whole
// time — on a single-core runner that contention dominates the round
// trip, so the idle variant is the serving layer's own HTTP cost and the
// gap is the price of co-locating with a saturating ingest.
func runServeHTTPBench(b *testing.B, hot bool) {
	bs := benchServeStart(b)
	defer bs.teardown()
	if !hot {
		bs.stopFeed()
		if _, err := bs.in.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		paths := []string{"/v1/status", "/v1/panel", "/v1/top?by=country&k=5"}
		i := 0
		for pb.Next() {
			resp, err := client.Get("http://" + bs.addr + paths[i%len(paths)])
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

func BenchmarkServeQueryHTTP(b *testing.B)     { runServeHTTPBench(b, true) }
func BenchmarkServeQueryHTTPIdle(b *testing.B) { runServeHTTPBench(b, false) }

// BenchmarkIngestRolling4Shard is BenchmarkIngest4Shard with rolling
// emission on and a server attached but unqueried: the cost of being
// servable while nobody asks, which the acceptance bar caps at ~5%.
func BenchmarkIngestRolling4Shard(b *testing.B) {
	packets := benchIngestStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchIngestConfig(4)
		cfg.Rolling = true
		in, err := ingest.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		srv, err := Serve(in, "127.0.0.1:0", "")
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
		srv.Close()
		if res.Stats.Attacks == 0 {
			b.Fatal("no attacks classified")
		}
		if snap := in.Snapshot(); snap == nil || !snap.Final {
			b.Fatal("rolling pipeline published no final snapshot")
		}
	}
	b.ReportMetric(float64(len(packets))*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
	b.ReportMetric(float64(len(packets)), "packets/op")
}
