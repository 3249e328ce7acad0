package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Get-or-create returns the same instrument.
	if r.Counter("test_total", "a counter") != c {
		t.Fatal("second Counter call returned a different instrument")
	}
	g := r.Gauge("test_depth", "a gauge", L("shard", "0"))
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if g.Value() != 5 {
		t.Fatal("SetMax lowered the gauge")
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatal("SetMax did not raise the gauge")
	}
	out := string(r.AppendText(nil))
	for _, w := range []string{
		"# HELP test_total a counter\n",
		"# TYPE test_total counter\n",
		"test_total 5\n",
		"# TYPE test_depth gauge\n",
		`test_depth{shard="0"} 9` + "\n",
	} {
		if !strings.Contains(out, w) {
			t.Fatalf("exposition missing %q:\n%s", w, out)
		}
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 1.5
	r.GaugeFunc("test_fn", "sampled", func() float64 { return v })
	out := string(r.AppendText(nil))
	if !strings.Contains(out, "test_fn 1.5\n") {
		t.Fatalf("missing func gauge sample:\n%s", out)
	}
	v = 2.5
	if got, ok := r.Sum("test_fn"); !ok || got != 2.5 {
		t.Fatalf("Sum(test_fn) = %v,%v want 2.5,true", got, ok)
	}
	// Re-registering replaces the callback.
	r.GaugeFunc("test_fn", "sampled", func() float64 { return 42 })
	if got, _ := r.Sum("test_fn"); got != 42 {
		t.Fatalf("replaced callback not used: %v", got)
	}
}

func TestShardedCounterMerge(t *testing.T) {
	r := NewRegistry()
	sc := r.ShardedCounter("test_pkts_total", "sharded", 4)
	if sc.Cells() != 4 {
		t.Fatalf("cells = %d, want 4", sc.Cells())
	}
	sc.Add(0, 10)
	sc.Inc(3)
	sc.Add(1, 5)
	if got := sc.Value(); got != 16 {
		t.Fatalf("merged value = %d, want 16", got)
	}
	out := string(r.AppendText(nil))
	// Renders as ONE merged sample — the scrape-time merge invariant.
	if !strings.Contains(out, "test_pkts_total 16\n") {
		t.Fatalf("missing merged sample:\n%s", out)
	}
	if strings.Count(out, "test_pkts_total") != 3 { // HELP, TYPE, sample
		t.Fatalf("sharded counter leaked per-cell samples:\n%s", out)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 1000 observations spread over 1µs..1ms exercise interpolation.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("count = %d, want 1000", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 200*time.Microsecond || p50 > 800*time.Microsecond {
		t.Fatalf("p50 = %v, want ~500µs", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
	if h.Quantile(1) < h.Quantile(0) {
		t.Fatal("q1 < q0")
	}
	// Sum accumulates total time.
	if h.Sum() <= 0 {
		t.Fatal("sum not recorded")
	}
	// Negative observations are clamped, not dropped.
	h.Observe(-time.Second)
	if h.Count() != 1001 {
		t.Fatal("negative observation dropped")
	}
}

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {256, 0}, {257, 1}, {512, 1}, {513, 2},
		{1 << 38, histBuckets - 2}, {1<<38 + 1, histBuckets - 1}, {1 << 62, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", L("path", "/v1/x"))
	h.Observe(100 * time.Nanosecond)
	h.Observe(time.Millisecond)
	out := string(r.AppendText(nil))
	for _, w := range []string{
		"# TYPE test_seconds histogram\n",
		`test_seconds_bucket{path="/v1/x",le="+Inf"} 2`,
		`test_seconds_count{path="/v1/x"} 2`,
		`test_seconds_sum{path="/v1/x"} `,
	} {
		if !strings.Contains(out, w) {
			t.Fatalf("exposition missing %q:\n%s", w, out)
		}
	}
	// Cumulative buckets: the first bucket holds the 100ns observation.
	if !strings.Contains(out, `le="2.56e-07"} 1`) {
		t.Fatalf("first bucket not cumulative-1:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_esc_total", "esc", L("v", "a\"b\\c\nd")).Inc()
	out := string(r.AppendText(nil))
	if !strings.Contains(out, `v="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
}

func TestRegistryConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_conflict", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("test_conflict", "x")
}

func TestConcurrentScrapeDuringWrites(t *testing.T) {
	// All merge paths — sharded cells, histogram buckets, func gauges —
	// under concurrent scrape. Run with -race in CI.
	r := NewRegistry()
	sc := r.ShardedCounter("test_hot_total", "hot", 8)
	h := r.Histogram("test_hot_seconds", "hot latency")
	r.GaugeFunc("test_hot_depth", "depth", func() float64 { return float64(sc.Value() % 7) })
	var wg sync.WaitGroup
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				sc.Inc(w)
				h.Observe(time.Duration(i) * time.Nanosecond)
			}
		}(w)
	}
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if out := r.AppendText(nil); len(out) == 0 {
				t.Error("empty scrape during writes")
				return
			}
			h.Quantile(0.99)
		}
	}()
	wg.Wait()
	close(stop)
	<-scraperDone
	if got := sc.Value(); got != 8*5000 {
		t.Fatalf("merged total = %d, want %d", got, 8*5000)
	}
	if got := h.Count(); got != 8*5000 {
		t.Fatalf("histogram count = %d, want %d", got, 8*5000)
	}
}

func TestProgressEmitsLines(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	logs, err := NewLog(w, "")
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	p := NewProgressLogger(logs.Logger("progress"), 5*time.Millisecond, func() []Field {
		n += 1000
		return []Field{F("packets", n), F("stage", "replay")}
	})
	p.Start()
	p.Start() // idempotent
	time.Sleep(30 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "msg=progress") || !strings.Contains(out, "sub=progress") ||
		!strings.Contains(out, "packets=") || !strings.Contains(out, "stage=replay") {
		t.Fatalf("progress line malformed:\n%s", out)
	}
	if !strings.Contains(out, "rate=") {
		t.Fatalf("no derived rate in:\n%s", out)
	}

	// StartProgress with -progress off never snapshots.
	logs.StartProgress(0, func() []Field {
		t.Error("snapshot called with progress off")
		return nil
	})()
}

func TestLogSpecLevels(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLog(&buf, "warn,wire=debug")
	if err != nil {
		t.Fatal(err)
	}
	lg.Logger("ingest").Info("quiet") // below the warn default
	lg.Logger("wire").Debug("chatty") // wire override admits debug
	lg.Logger("ingest").Warn("loud")  // at the default
	if lg.Logger("wire") != lg.Logger("wire") {
		t.Fatal("loggers not cached per subsystem")
	}
	out := buf.String()
	if strings.Contains(out, "msg=quiet") {
		t.Fatalf("info leaked through warn default:\n%s", out)
	}
	if !strings.Contains(out, "msg=chatty") || !strings.Contains(out, "sub=wire") {
		t.Fatalf("wire debug override not applied:\n%s", out)
	}
	if !strings.Contains(out, "msg=loud") || !strings.Contains(out, "sub=ingest") {
		t.Fatalf("warn line missing:\n%s", out)
	}
	for _, bad := range []string{"verbose", "wire=loudest", "info,warn"} {
		if _, err := NewLog(&buf, bad); err == nil {
			t.Errorf("spec %q: no error", bad)
		}
	}
}

// writerFunc adapts a function to io.Writer for the progress test.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
