package ingest

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"booters/internal/honeypot"
	"booters/internal/obs"
	"booters/internal/timeseries"
)

// TestConcurrentIngest drives the pipeline from many producer goroutines at
// once — the deployment shape, one producer per sensor capture loop — and
// checks that every packet is accounted for. Run under -race this is the
// shard-safety test for the ingest satellite task.
func TestConcurrentIngest(t *testing.T) {
	packets := testStream(t, 2, 150)
	// Keep the whole stream inside one quiet gap's tolerance per shard:
	// producers interleave arbitrarily, and no interleaving may make a
	// packet look more than one gap late. The synthetic stream spans weeks,
	// so partition it round-robin and let each producer replay in order;
	// per-shard disorder then stays bounded by producer skew, and any
	// packet the aggregator still rejects is counted, not lost.
	const producers = 8
	cfg := testConfig(4, 2)
	cfg.BatchSize = 16
	cfg.WatermarkEvery = 64
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(packets); i += producers {
				if err := in.Ingest(packets[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Packets + res.Stats.Late; got != uint64(len(packets)) {
		t.Errorf("packets accounted: got %d want %d", got, len(packets))
	}
	if res.Stats.Flows != res.Stats.Attacks+res.Stats.Scans {
		t.Errorf("flow split inconsistent: %+v", res.Stats)
	}
	if res.Stats.Attacks == 0 {
		t.Error("no attacks classified")
	}
}

// TestConcurrentIngestWithConcurrentClose races Close against active
// producers: every producer must either succeed or observe ErrClosed,
// never panic on a closed shard channel.
func TestConcurrentIngestWithConcurrentClose(t *testing.T) {
	cfg := testConfig(2, 1)
	cfg.BatchSize = 4
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	packets := testStream(t, 1, 40)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(packets); i += 4 {
				if err := in.Ingest(packets[i]); err != nil {
					if err != ErrClosed {
						t.Error(err)
					}
					return
				}
			}
		}(g)
	}
	time.Sleep(time.Millisecond)
	if _, err := in.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	_ = honeypot.FlowGap
}

// TestConcurrentScrapeDuringIngest races Prometheus scrapes against a hot
// multi-producer pipeline: a scraper goroutine renders the full exposition
// in a loop — exercising every GaugeFunc (queue depth, watermarks, flow
// tables) against the workers mutating under them — while 8 producers
// ingest. Run under -race this is the observability satellite's safety
// test; functionally it checks the settled exposition accounts for every
// packet.
func TestConcurrentScrapeDuringIngest(t *testing.T) {
	packets := testStream(t, 2, 150)
	const producers = 8
	cfg := testConfig(4, 2)
	cfg.BatchSize = 16
	cfg.WatermarkEvery = 64
	cfg.Metrics = obs.NewRegistry()
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		var buf []byte
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf = in.Metrics().AppendText(buf[:0])
			if !strings.Contains(string(buf), "booters_ingest_packets_total") {
				t.Error("mid-ingest scrape missing the packets family")
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(packets); i += producers {
				if err := in.Ingest(packets[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-scraperDone
	// Every packet accepted by Ingest is on the merged counter, and the
	// live Late() reading settled to the pipeline's own accounting.
	if got, _ := in.Metrics().Sum("booters_ingest_packets_total"); got != float64(len(packets)) {
		t.Errorf("scraped packets total: got %v want %d", got, len(packets))
	}
	if in.Late() != res.Stats.Late {
		t.Errorf("live Late() %d != settled Stats.Late %d", in.Late(), res.Stats.Late)
	}
	if got, _ := in.Metrics().Sum("booters_ingest_flows_closed_total"); got != float64(res.Stats.Flows) {
		t.Errorf("scraped flows total: got %v want %d", got, res.Stats.Flows)
	}
}

// TestConcurrentSourcesSealAtCrossings races the seal-point crossing
// check: producers that each own a source advance it ahead of every
// packet, so several of them lift the low-watermark past a seal point at
// about the same time, and nothing but those crossings can seal mid-run.
// Every week but the last must seal before Close, snapshots must stay
// monotone and the Final panel must equal the batch reference.
func TestConcurrentSourcesSealAtCrossings(t *testing.T) {
	const weeks, producers = 4, 4
	packets := testStream(t, weeks, 50)
	want, err := Batch(testConfig(1, weeks), packets)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rollingConfig(3, weeks)
	cfg.Unordered = true
	cfg.WatermarkEvery = 1 << 30
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := collectSnapshots(t, in)
	srcs := make([]*Source, producers)
	for g := range srcs {
		srcs[g] = in.RegisterSource()
	}
	var wg sync.WaitGroup
	for g, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer src.Close()
			for i := g; i < len(packets); i += producers {
				src.Advance(packets[i].Time) // each producer's share is in time order
				if err := in.Ingest(packets[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	lastSealed := timeseries.WeekOf(testStart.AddDate(0, 0, 7*(weeks-2)))
	waitSealed(t, in, lastSealed)
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Late != 0 {
		t.Fatalf("%d late packets under per-producer promises", res.Stats.Late)
	}
	snaps := log()
	for i := 1; i < len(snaps); i++ {
		snapshotExtends(t, snaps[i-1], snaps[i])
	}
	if final := snaps[len(snaps)-1]; !final.Final || !reflect.DeepEqual(final.Panel, want.Panel) {
		t.Fatal("final snapshot differs from batch")
	}
}
