package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"booters/internal/geo"
	"booters/internal/ingest"
	"booters/internal/obs/trace"
	"booters/internal/protocols"
	"booters/internal/spool"
	"booters/internal/timeseries"
)

// getJSON fetches url and decodes the response body (which must be valid
// JSON — the encoders are hand-rolled, so every test doubles as an
// encoding check), returning the decoded object and status code.
func getJSON(t *testing.T, url string) (map[string]any, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("%s: invalid JSON %q: %v", url, body, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: content type %q", url, ct)
	}
	return out, resp.StatusCode
}

// getText fetches url and returns the raw body, checking the response is
// Prometheus text exposition.
func getText(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("%s: content type %q", url, ct)
	}
	return string(body), resp.StatusCode
}

// servedHTTP runs a full rolling ingest wired into a Server mounted on an
// httptest server, optionally recording the stream to a spool first so
// /v1/spool has something to report.
func servedHTTP(t *testing.T, weeks int, attacksPerWeek float64, withSpool bool) (*Server, *httptest.Server, *ingest.Result) {
	t.Helper()
	packets := testStream(t, weeks, attacksPerWeek)
	cfg := Config{}
	if withSpool {
		dir := filepath.Join(t.TempDir(), "spool")
		w, err := spool.Create(dir, spool.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ingest.Datagrams(packets) {
			if err := w.Append(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		cfg.SpoolDir = dir
	}
	in, err := ingest.New(testIngestConfig(2, weeks))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ingest = in
	srv := New(cfg)
	if err := in.OnSnapshot(srv.Publish); err != nil {
		t.Fatal(err)
	}
	srv.Publish(in.Snapshot())
	for _, p := range packets {
		if err := in.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(hts.Close)
	return srv, hts, res
}

// TestHTTPEndpoints drives every endpoint once against a completed run
// and checks the JSON answers against the pipeline's Result.
func TestHTTPEndpoints(t *testing.T) {
	srv, hts, res := servedHTTP(t, 4, 50, true)

	status, code := getJSON(t, hts.URL+"/v1/status")
	if code != 200 || status["final"] != true {
		t.Fatalf("status: %v (code %d)", status, code)
	}
	if got := status["attacks"].(float64); int(got) != res.Stats.Attacks {
		t.Errorf("status attacks: got %v want %d", got, res.Stats.Attacks)
	}

	panel, code := getJSON(t, hts.URL+"/v1/panel")
	if code != 200 {
		t.Fatalf("panel code %d", code)
	}
	values := panel["series"].(map[string]any)["values"].([]any)
	if len(values) != res.Weeks {
		t.Errorf("panel weeks: got %d want %d", len(values), res.Weeks)
	}
	var total float64
	for _, v := range values {
		total += v.(float64)
	}
	if total != res.Global.Total() {
		t.Errorf("panel total: got %v want %v", total, res.Global.Total())
	}

	series, code := getJSON(t, hts.URL+"/v1/series?country="+geo.US)
	if code != 200 {
		t.Fatalf("series code %d: %v", code, series)
	}
	if _, code := getJSON(t, hts.URL+"/v1/series?country=XX"); code != 404 {
		t.Errorf("unknown country: code %d want 404", code)
	}

	top, code := getJSON(t, hts.URL+"/v1/top?by=country&k=3")
	if code != 200 || len(top["rows"].([]any)) != 3 {
		t.Fatalf("top: %v (code %d)", top, code)
	}
	if _, code := getJSON(t, hts.URL+"/v1/top?by=victim"); code != 400 {
		t.Errorf("bad by: code %d want 400", code)
	}
	if _, code := getJSON(t, hts.URL+"/v1/top?k=-1"); code != 400 {
		t.Errorf("bad k: code %d want 400", code)
	}

	sp, code := getJSON(t, hts.URL+"/v1/spool")
	if code != 200 {
		t.Fatalf("spool: %v (code %d)", sp, code)
	}
	if recs := sp["records"].(float64); recs == 0 {
		t.Error("spool records: got 0")
	}

	// 4 weeks is too short for the seasonal model: a clean 422, not a 500.
	if _, code := getJSON(t, hts.URL+"/v1/model"); code != 422 {
		t.Errorf("short model window: code %d want 422", code)
	}
	if _, code := getJSON(t, hts.URL+"/v1/model?from=bogus"); code != 400 {
		t.Errorf("bad from: code %d want 400", code)
	}

	text, code := getText(t, hts.URL+"/v1/metrics")
	if code != 200 {
		t.Fatalf("metrics code %d", code)
	}
	// Every /v1/top request above — the hit and the two rejected ones —
	// must be on the books, split into requests and errors.
	for _, line := range []string{
		`booters_http_requests_total{path="/v1/top"} 3`,
		`booters_http_errors_total{path="/v1/top"} 2`,
		`booters_http_request_seconds_count{path="/v1/panel"} 1`,
		`booters_model_cache_misses_total 1`,
	} {
		if !strings.Contains(text, line) {
			t.Errorf("metrics: missing %q", line)
		}
	}
	// The panel latency histogram must have banked a real observation.
	if !strings.Contains(text, `booters_http_request_seconds_sum{path="/v1/panel"}`) {
		t.Error("panel latency accounting missing")
	}
	if q := srv.RouteQuantile("/v1/panel", 0.5); q <= 0 {
		t.Errorf("panel p50: got %v want > 0", q)
	}
}

// TestHTTPNoSnapshot pins the cold-start contract: panel queries answer
// 503 until a snapshot lands, status always answers.
func TestHTTPNoSnapshot(t *testing.T) {
	srv := New(Config{})
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	if _, code := getJSON(t, hts.URL+"/v1/panel"); code != 503 {
		t.Errorf("panel: code %d want 503", code)
	}
	if _, code := getJSON(t, hts.URL+"/v1/series"); code != 503 {
		t.Errorf("series: code %d want 503", code)
	}
	if st, code := getJSON(t, hts.URL+"/v1/status"); code != 200 || st["seq"].(float64) != 0 {
		t.Errorf("status: %v (code %d)", st, code)
	}
	if _, code := getJSON(t, hts.URL+"/v1/spool"); code != 404 {
		t.Errorf("spool: code %d want 404", code)
	}
}

// TestQueryDuringIngest is the serving layer's race test: HTTP and
// direct-engine readers hammer every query while the pipeline is
// ingesting and swapping snapshots under them. Run under -race (CI does),
// this checks the lock-free read path against the sealing shards' publishes;
// functionally it checks queries never fail once the first snapshot is in
// and the totals served only grow.
func TestQueryDuringIngest(t *testing.T) {
	const weeks = 6
	packets := testStream(t, weeks, 80)
	in, err := ingest.New(testIngestConfig(4, weeks))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Ingest: in})
	if err := in.OnSnapshot(srv.Publish); err != nil {
		t.Fatal(err)
	}
	srv.Publish(in.Snapshot())
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var fail sync.Once
	var failure error
	fatal := func(err error) { fail.Do(func() { failure = err }) }

	// Direct engine readers: monotone totals, no errors.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := srv.Engine()
			var lastTotal float64
			var lastSeq uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := eng.Snapshot()
				if snap.Seq < lastSeq {
					fatal(fmt.Errorf("snapshot sequence went backwards: %d after %d", snap.Seq, lastSeq))
					return
				}
				lastSeq = snap.Seq
				g, err := eng.Series("", "")
				if err != nil {
					fatal(err)
					return
				}
				if total := g.Total(); total < lastTotal {
					fatal(fmt.Errorf("served total shrank: %v after %v", total, lastTotal))
					return
				} else {
					lastTotal = total
				}
				if _, err := eng.TopCountries(5); err != nil {
					fatal(err)
					return
				}
			}
		}()
	}
	// HTTP readers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := hts.Client()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/v1/status", "/v1/panel", "/v1/top?by=protocol", "/v1/metrics"} {
					resp, err := client.Get(hts.URL + path)
					if err != nil {
						fatal(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						fatal(fmt.Errorf("%s: status %d mid-ingest", path, resp.StatusCode))
						return
					}
				}
			}
		}()
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
	close(stop)
	wg.Wait()
	if failure != nil {
		t.Fatal(failure)
	}
	// After Close the served panel is the final one.
	g, err := srv.Engine().Series("", "")
	if err != nil || g.Total() != res.Global.Total() {
		t.Fatalf("post-close serve: total %v want %v (err %v)", g.Total(), res.Global.Total(), err)
	}
	if !srv.Engine().Snapshot().Final {
		t.Fatal("store does not hold the final snapshot after Close")
	}
}

// TestTraceScrapeDuringHotIngest hammers /v1/trace and the health
// probes while a 4-shard unordered pipeline ingests with tracing on —
// the scrape-during-hot-ingest shape the lock-free span rings exist
// for, checked under -race in CI. After Close, the flight recorder
// must hold the always-recorded seal and publish spans.
func TestTraceScrapeDuringHotIngest(t *testing.T) {
	const weeks = 6
	packets := testStream(t, weeks, 80)
	tr := trace.New(trace.Config{SampleEvery: 2, SlowThreshold: -1})
	icfg := testIngestConfig(4, weeks)
	icfg.Unordered = true
	icfg.Trace = tr
	in, err := ingest.New(icfg)
	if err != nil {
		t.Fatal(err)
	}
	// Unordered pipelines only expire flows (and so seal weeks) behind a
	// source promise; register one and advance it as the stream is fed,
	// like the wire collector does per sensor.
	src := in.RegisterSource()
	srv := New(Config{Ingest: in, Trace: tr})
	if err := in.OnSnapshot(srv.Publish); err != nil {
		t.Fatal(err)
	}
	srv.Publish(in.Snapshot())
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var fail sync.Once
	var failure error
	fatal := func(err error) { fail.Do(func() { failure = err }) }
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := hts.Client()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/v1/trace", "/v1/healthz", "/v1/readyz"} {
					resp, err := client.Get(hts.URL + path)
					if err != nil {
						fatal(err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						fatal(err)
						return
					}
					if resp.StatusCode != 200 {
						fatal(fmt.Errorf("%s: status %d mid-ingest: %s", path, resp.StatusCode, body))
						return
					}
					if path == "/v1/trace" {
						var doc struct {
							TraceEvents []struct {
								Name string `json:"name"`
							} `json:"traceEvents"`
						}
						if err := json.Unmarshal(body, &doc); err != nil {
							fatal(fmt.Errorf("/v1/trace mid-ingest is not valid JSON: %v", err))
							return
						}
					}
				}
			}
		}()
	}

	for _, p := range packets {
		src.Advance(p.Time)
		if err := in.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	// A fast feed can end before any scraper has drawn a sampled trace
	// root, so keep the pipeline open until the recorder (read directly,
	// which takes no root) holds a serve.query span.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if slices.ContainsFunc(tr.Snapshot(), func(s trace.Span) bool { return s.Name == "serve.query" }) {
			break
		}
	}
	src.Close()
	if _, err := in.Close(); err != nil {
		t.Fatal(err)
	}
	closedUs := float64(time.Now().UnixMicro())
	close(stop)
	wg.Wait()
	if failure != nil {
		t.Fatal(failure)
	}

	out, code := getJSON(t, hts.URL+"/v1/trace")
	if code != 200 {
		t.Fatalf("/v1/trace after close: status %d", code)
	}
	events, _ := out["traceEvents"].([]any)
	seen := map[string]int{}
	for _, ev := range events {
		m, ok := ev.(map[string]any)
		if !ok {
			continue
		}
		name, _ := m["name"].(string)
		// Only a query that started before Close returned shows a
		// scrape during ingest; the scrapers keep going after it.
		if ts, _ := m["ts"].(float64); name == "serve.query" && ts >= closedUs {
			continue
		}
		seen[name]++
	}
	for _, want := range []string{"week.seal", "snapshot.publish", "ingest.apply", "serve.query"} {
		if seen[want] == 0 {
			t.Errorf("no %s span in /v1/trace after a %d-week run (saw %v)", want, weeks, seen)
		}
	}
}

// TestServerStartAddrClose exercises the real listener path: bind an
// ephemeral port, answer one request, close.
func TestServerStartAddrClose(t *testing.T) {
	srv := New(Config{})
	if srv.Addr() != "" {
		t.Fatal("Addr before Start")
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st, code := getJSON(t, "http://"+srv.Addr()+"/v1/status")
	if code != 200 || st["seq"].(float64) != 0 {
		t.Fatalf("status over real listener: %v (code %d)", st, code)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/v1/status"); err == nil {
		t.Error("server still answering after Close")
	}
}

// TestHealthzStallRule drives the /v1/healthz liveness rule on an
// injected clock: a watermark head that stops moving is healthy until
// DefaultStallAfter has passed and unhealthy after, a head that advances
// restarts the stall clock, and a server holding the Final snapshot is
// healthy however long the head has stood still.
func TestHealthzStallRule(t *testing.T) {
	const weeks = 2
	packets := testStream(t, weeks, 100)
	in, err := ingest.New(testIngestConfig(1, weeks))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Ingest: in})
	if err := in.OnSnapshot(srv.Publish); err != nil {
		t.Fatal(err)
	}
	// feedUntilHeadMoves ingests packets until the pipeline's watermark
	// head changes (heads move per flushed batch, not per packet).
	next := 0
	feedUntilHeadMoves := func() {
		t.Helper()
		before := in.Head()
		for ; in.Head().Equal(before); next++ {
			if next == len(packets) {
				t.Fatal("stream exhausted before the head moved")
			}
			if err := in.Ingest(packets[next]); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(now time.Time, want bool, what string) {
		t.Helper()
		msg, ok := srv.live(now)
		if ok != want {
			t.Errorf("%s: live = %v (%q), want %v", what, ok, msg, want)
		}
		if !ok && !strings.Contains(msg, "stalled") {
			t.Errorf("%s: unhealthy message %q does not name the stall", what, msg)
		}
	}

	t0 := time.Date(2030, time.January, 1, 0, 0, 0, 0, time.UTC)
	check(t0, true, "no packets yet")
	feedUntilHeadMoves()
	check(t0, true, "first head")
	check(t0.Add(DefaultStallAfter-time.Second), true, "head still, inside the window")
	check(t0.Add(DefaultStallAfter+time.Second), false, "head still, past the window")

	t1 := t0.Add(2 * DefaultStallAfter)
	feedUntilHeadMoves()
	check(t1, true, "head advanced")
	check(t1.Add(DefaultStallAfter-time.Second), true, "clock restarted by the advance")
	check(t1.Add(DefaultStallAfter+time.Second), false, "head still again, past the window")

	if _, err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Engine().Snapshot(); snap == nil || !snap.Final {
		t.Fatal("Close did not publish a Final snapshot")
	}
	check(t1.Add(100*DefaultStallAfter), true, "final snapshot")
}

// TestTopGoldenBodies pins the exact /v1/top bodies over a hand-built
// snapshot: ties in attack count order countries by code and protocols
// by their declaration order (NTP before LDAP, TIME before SSDP), zero
// rows rank last in the same orders, a k past the row count returns
// every row, and no k means 10.
func TestTopGoldenBodies(t *testing.T) {
	p := timeseries.NewPanel(timeseries.WeekOf(testStart), 3)
	book := func(s *timeseries.Series, weekly ...float64) { copy(s.Values, weekly) }
	book(p.Country(geo.UK), 7)
	book(p.Country(geo.US), 5, 0, 2)
	book(p.Country(geo.CN), 1, 1, 1)
	book(p.Country(geo.DE), 0, 3)
	book(p.Country(geo.RU), 0, 0, 1)
	book(p.Protocol(protocols.DNS), 2, 2, 2)
	book(p.Protocol(protocols.LDAP), 4)
	book(p.Protocol(protocols.NTP), 0, 4)
	book(p.Protocol(protocols.SSDP), 1, 1)
	book(p.Protocol(protocols.Time), 0, 0, 2)
	srv := New(Config{})
	srv.Publish(&ingest.Snapshot{Seq: 1, Sealed: true, Final: true, Panel: p})

	row := func(key string, n int) string { return fmt.Sprintf(`{"key":%q,"attacks":%d}`, key, n) }
	countries := []string{
		row("UK", 7), row("US", 7), row("CN", 3), row("DE", 3), row("RU", 1),
		row("AU", 0), row("CA", 0), row("FR", 0), row("NL", 0), row("PL", 0), row("SA", 0),
	}
	protos := []string{
		row("DNS", 6), row("NTP", 4), row("LDAP", 4), row("TIME", 2), row("SSDP", 2),
		row("QOTD", 0), row("CHARGEN", 0), row("PORTMAP", 0), row("MSSQL", 0), row("MDNS", 0),
	}
	body := func(by string, rows []string) string {
		return `{"by":"` + by + `","rows":[` + strings.Join(rows, ",") + "]}\n"
	}
	for _, tc := range []struct{ query, want string }{
		{"by=country&k=20", body("country", countries)},
		{"by=country&k=3", body("country", countries[:3])},
		{"k=1", body("country", countries[:1])},
		{"", body("country", countries[:10])},
		{"by=protocol&k=50", body("protocol", protos)},
		{"by=protocol&k=4", body("protocol", protos[:4])},
		{"by=protocol", body("protocol", protos)},
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/top?"+tc.query, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%q: code %d", tc.query, rec.Code)
		}
		if got := rec.Body.String(); got != tc.want {
			t.Errorf("%q:\n got %s\nwant %s", tc.query, got, tc.want)
		}
	}
}
