package booters

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"booters/internal/ingest"
	"booters/internal/scenario"
	"booters/internal/serve"
)

// serveGet fetches one endpoint from a live server and decodes the JSON.
func serveGet(t *testing.T, addr, path string) (map[string]any, int) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
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
		t.Fatalf("%s: invalid JSON %q: %v", path, body, err)
	}
	return out, resp.StatusCode
}

// serveGetText fetches one endpoint and returns the raw body — for the
// Prometheus text exposition, which is deliberately not JSON.
func serveGetText(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("%s: code %d", path, resp.StatusCode)
	}
	return string(body)
}

// promValue extracts the sample value of one series (exact name{labels}
// match) from a Prometheus text exposition.
func promValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s missing from exposition", series)
	return 0
}

// TestServeLiveDuringReplay is the serving layer's end-to-end acceptance
// test: record a spool, replay it through a rolling ingestor built by the
// facade, and answer panel/top-K/spool queries over real HTTP while the
// replay is still running — synchronised on the first sealed mid-run
// snapshot, so the mid-replay queries deterministically observe a
// non-final panel. After Close the final panel and model fits are served.
func TestServeLiveDuringReplay(t *testing.T) {
	start := time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC)
	run, err := scenario.Generate(scenario.Config{
		Seed:            DefaultSeed,
		Start:           start,
		Weeks:           6,
		BaselineAttacks: 60,
		Market:          &scenario.MarketDynamics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := run.Packets
	dir := filepath.Join(t.TempDir(), "capture")
	if _, err := RecordSpool(dir, packets); err != nil {
		t.Fatal(err)
	}

	in, err := ingest.New(ingest.Config{
		Shards:         2,
		Start:          start,
		End:            start.AddDate(0, 0, 7*6-1),
		Rolling:        true,
		BatchSize:      32,
		WatermarkEvery: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(in, "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// gate closes when the first sealed, non-final snapshot publishes:
	// the replay is provably still in flight when the queries below run.
	gate := make(chan struct{})
	gateClosed := false
	if err := in.OnSnapshot(func(s *ingest.Snapshot) {
		if s.Sealed && !s.Final && !gateClosed {
			gateClosed = true
			close(gate)
		}
	}); err != nil {
		t.Fatal(err)
	}

	replayDone := make(chan error, 1)
	go func() {
		_, err := ReplaySpoolWindow(in, dir, SpoolReplayOptions{})
		replayDone <- err
	}()

	select {
	case <-gate:
	case <-time.After(10 * time.Second):
		t.Fatal("no sealed snapshot published mid-replay")
	}

	// Mid-replay: live queries against a non-final panel.
	status, code := serveGet(t, srv.Addr(), "/v1/status")
	if code != 200 {
		t.Fatalf("mid-replay status: code %d", code)
	}
	if status["final"] == true {
		t.Fatal("status claims final while the replay is running")
	}
	if status["sealed"] != true {
		t.Fatal("gate passed but status not sealed")
	}
	panel, code := serveGet(t, srv.Addr(), "/v1/panel")
	if code != 200 {
		t.Fatalf("mid-replay panel: code %d", code)
	}
	top, code := serveGet(t, srv.Addr(), "/v1/top?by=country&k=3")
	if code != 200 || len(top["rows"].([]any)) == 0 {
		t.Fatalf("mid-replay top: %v (code %d)", top, code)
	}
	spoolInfo, code := serveGet(t, srv.Addr(), "/v1/spool")
	if code != 200 || spoolInfo["records"].(float64) != float64(len(packets)) {
		t.Fatalf("mid-replay spool: %v (code %d)", spoolInfo, code)
	}

	if err := <-replayDone; err != nil {
		t.Fatal(err)
	}
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Post-close: the final panel is served, and it is the replay's panel.
	status, _ = serveGet(t, srv.Addr(), "/v1/status")
	if status["final"] != true {
		t.Fatalf("post-close status not final: %v", status)
	}
	panel, _ = serveGet(t, srv.Addr(), "/v1/panel")
	var total float64
	for _, v := range panel["series"].(map[string]any)["values"].([]any) {
		total += v.(float64)
	}
	if total != res.Global.Total() {
		t.Fatalf("served final total %v != result total %v", total, res.Global.Total())
	}

	// Metrics saw every query: /v1/status was hit at least twice above.
	metrics := serveGetText(t, srv.Addr(), "/v1/metrics")
	hits := promValue(t, metrics, `booters_http_requests_total{path="/v1/status"}`)
	if hits < 2 {
		t.Fatalf("metrics lost hits: status requests = %v", hits)
	}
}

// TestServeRequiresRolling pins the facade guard.
func TestServeRequiresRolling(t *testing.T) {
	in, err := NewIngestor(1)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if _, err := Serve(in, "127.0.0.1:0", ""); err == nil {
		t.Fatal("Serve accepted a non-rolling ingestor")
	}
}

// TestServeModelOverHTTP fits the Table 1 model through the HTTP API on
// an ingested stream long enough to carry it, and checks the memo: the
// second identical query is a cache hit.
func TestServeModelOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("model fit over 30 ingested weeks")
	}
	start := time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC)
	run, err := scenario.Generate(scenario.Config{
		Seed:            DefaultSeed,
		Start:           start,
		Weeks:           30,
		BaselineAttacks: 40,
		Market:          &scenario.MarketDynamics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := run.Packets
	in, err := ingest.New(ingest.Config{
		Shards:  2,
		Start:   start,
		End:     start.AddDate(0, 0, 7*30-1),
		Rolling: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(in, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, p := range packets {
		if err := in.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := in.Close(); err != nil {
		t.Fatal(err)
	}

	model, code := serveGet(t, srv.Addr(), "/v1/model")
	if code != 200 {
		t.Fatalf("model: %v (code %d)", model, code)
	}
	// Webstresser (April 2018, lagged two weeks) is inside the span, so
	// the fit must include its dummy.
	found := false
	for _, e := range model["effects"].([]any) {
		if e.(map[string]any)["name"] == "Webstresser" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Webstresser effect missing from %v", model["effects"])
	}
	if _, code := serveGet(t, srv.Addr(), "/v1/model"); code != 200 {
		t.Fatal("repeat model query failed")
	}
	metrics := serveGetText(t, srv.Addr(), "/v1/metrics")
	if promValue(t, metrics, "booters_model_cache_hits_total") < 1 ||
		promValue(t, metrics, "booters_model_cache_misses_total") < 1 {
		t.Fatal("model cache counters missing from exposition")
	}
}

// TestServeFitsSpoolManifest pins the served model catalogue of a
// recorded spool: Serve fits the interventions of the scenario manifest
// recorded next to the segments, so a replayed takedown-sharp capture
// recovers its injected Takedown on /v1/model; without a manifest the
// same spool is fitted with the paper's Table 1 windows; and a manifest
// that cannot be read fails Serve instead of falling back to Table 1.
func TestServeFitsSpoolManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("model fits over a 104-week replay")
	}
	run := cachedScenarioRun(t, "takedown-sharp")
	m := run.Manifest
	dir := filepath.Join(t.TempDir(), "capture")
	if _, err := RecordSpool(dir, run.Stream()); err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, scenario.ManifestFile)
	if err := m.WriteFile(manifestPath); err != nil {
		t.Fatal(err)
	}
	from, to := m.Window()
	modelPath := "/v1/model?from=" + from.Format("2006-01-02") + "&to=" + to.Format("2006-01-02")
	newIngestor := func() *ingest.Ingestor {
		in, err := ingest.New(ingest.Config{Shards: 2, Start: m.Start, End: m.End(), Rolling: true})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	// served replays the spool into a fresh pipeline served by Serve and
	// returns the effect names of the final /v1/model fit.
	served := func() (*serve.Server, []string) {
		in := newIngestor()
		srv, err := Serve(in, "127.0.0.1:0", dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if _, err := ReplaySpool(in, dir); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Close(); err != nil {
			t.Fatal(err)
		}
		body, code := serveGet(t, srv.Addr(), modelPath)
		if code != 200 {
			t.Fatalf("%s: %v (code %d)", modelPath, body, code)
		}
		var names []string
		for _, e := range body["effects"].([]any) {
			names = append(names, e.(map[string]any)["name"].(string))
		}
		return srv, names
	}

	srv, names := served()
	if !slices.Contains(names, "Takedown") {
		t.Fatalf("/v1/model over a recorded takedown-sharp spool fit %v, want the manifest's Takedown", names)
	}
	model, err := srv.Engine().Model(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyFit(model); err != nil {
		t.Fatalf("served fit of the recorded spool: %v", err)
	}

	if err := os.Remove(manifestPath); err != nil {
		t.Fatal(err)
	}
	if _, names := served(); !slices.Contains(names, "Webstresser") || slices.Contains(names, "Takedown") {
		t.Fatalf("/v1/model over a spool without a manifest fit %v, want the Table 1 windows in its span", names)
	}

	if err := os.WriteFile(manifestPath, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := newIngestor()
	defer in.Close()
	if srv, err := Serve(in, "127.0.0.1:0", dir); err == nil {
		srv.Close()
		t.Fatal("Serve accepted a spool whose manifest cannot be read")
	}
}
