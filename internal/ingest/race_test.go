package ingest

import (
	"strings"
	"sync"
	"testing"
	"time"

	"booters/internal/honeypot"
	"booters/internal/obs"
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
