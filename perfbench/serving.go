package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"booters"
	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/serve"
	"booters/internal/timeseries"
)

// sut is one system under test: a rolling pipeline over the scenario
// span with a scenario-catalogue HTTP server attached.
type sut struct {
	in  *ingest.Ingestor
	srv *serve.Server
}

// pipeConfig selects the pipeline shape a workload deploys.
type pipeConfig struct {
	shards    int
	unordered bool
	wmEvery   int           // watermark broadcast cadence in packets; 0 keeps the default
	metrics   *obs.Registry // the program's own counters; traced passes only
}

func newSUT(e *env, pc pipeConfig) (*sut, error) {
	in, err := ingest.New(ingest.Config{
		Shards:         pc.shards,
		Start:          e.man.Start,
		End:            e.man.End(),
		Rolling:        true,
		Unordered:      pc.unordered,
		WatermarkEvery: pc.wmEvery,
		Metrics:        pc.metrics,
	})
	if err != nil {
		return nil, err
	}
	srv, err := booters.ServeScenario(in, "127.0.0.1:0", e.man)
	if err != nil {
		in.Close()
		return nil, err
	}
	return &sut{in: in, srv: srv}, nil
}

// close stops the server and the pipeline (if still open).
func (s *sut) close() {
	s.srv.Close()
	s.in.Close()
}

// weekDate renders scenario week w as the YYYY-MM-DD the HTTP API takes.
func weekDate(e *env, w int) string {
	return e.man.Start.AddDate(0, 0, 7*w).Format("2006-01-02")
}

// sealClock measures freshness: for each scenario week W, the wall time
// from handing over the first record whose event time makes W sealable
// (low-watermark past W's end plus the flow gap) to the serve store
// holding a snapshot with Through >= W.
type sealClock struct {
	start    time.Time
	handover []atomic.Int64 // wall ns, 0 = not yet
	publish  []atomic.Int64
	next     int   // producer side: next week to cross
	nextSeal int64 // event-time ns that makes week next sealable
	pubNext  int   // publisher side: next week to stamp
	seen     atomic.Int64
}

func newSealClock(e *env) *sealClock {
	c := &sealClock{start: e.man.Start,
		handover: make([]atomic.Int64, e.man.Weeks), publish: make([]atomic.Int64, e.man.Weeks)}
	c.nextSeal = c.sealPoint(0)
	return c
}

func (c *sealClock) sealPoint(w int) int64 {
	return c.start.AddDate(0, 0, 7*(w+1)).Add(honeypot.FlowGap).UnixNano()
}

// skipTo leaves the weeks before w out of the measurement (they were
// sealed during set-up).
func (c *sealClock) skipTo(w int) {
	c.next, c.pubNext = w, w
	c.nextSeal = c.sealPoint(w)
}

// observe is called by the single producer with the low-watermark it has
// just handed over (event-time ns).
func (c *sealClock) observe(t int64) {
	if t < c.nextSeal {
		return
	}
	now := time.Now().UnixNano()
	for c.next < len(c.handover) && t >= c.nextSeal {
		c.handover[c.next].Store(now)
		c.next++
		c.nextSeal = c.sealPoint(c.next)
	}
}

// published is the OnSnapshot subscriber; it is registered after the
// server's, so the store already holds snap when it runs.
func (c *sealClock) published(snap *ingest.Snapshot) {
	c.seen.Add(1)
	if !snap.Sealed || snap.Final {
		return
	}
	w := int(snap.Through.Start.Sub(c.start).Hours()/24/7 + 0.5)
	now := time.Now().UnixNano()
	for ; c.pubNext <= w && c.pubNext < len(c.publish); c.pubNext++ {
		c.publish[c.pubNext].Store(now)
	}
}

// lags returns the freshness of every week both stamped, in ms,
// steal-gated per sample.
func (c *sealClock) lags(e *env) []float64 {
	g := e.gate()
	var out []float64
	for i := range c.handover {
		h, p := c.handover[i].Load(), c.publish[i].Load()
		if h > 0 && p > 0 {
			out = append(out, float64(max(p-h, 0))/1e6)
			g.add(h, p)
		}
	}
	return g.pick(out)
}

// client is one closed-loop HTTP client on its own keep-alive connection.
type client struct {
	http *http.Client
	base string
}

func newClient(addr string) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		base: "http://" + addr,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// get fetches path and returns the body, status and latency (request
// sent to body fully read).
func (c *client) get(path string) ([]byte, int, time.Duration, error) {
	start := time.Now()
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, 0, time.Since(start), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return body, resp.StatusCode, time.Since(start), err
}

// readStats accumulates one dashboard client's results.
type readStats struct {
	lat     []float64 // ms, every completed read
	byClass map[string][]float64
	bytes   int64
	n       int64
	failed  int64
	elapsed time.Duration
}

func (r *readStats) merge(o readStats) {
	r.lat = append(r.lat, o.lat...)
	if r.byClass == nil {
		r.byClass = map[string][]float64{}
	}
	for k, v := range o.byClass {
		r.byClass[k] = append(r.byClass[k], v...)
	}
	r.bytes += o.bytes
	r.n += o.n
	r.failed += o.failed
	r.elapsed += o.elapsed
}

func (r *readStats) qps() float64 { return float64(r.n-r.failed) / r.elapsed.Seconds() }

// queryOf parses a dashboard path's query parameters.
func queryOf(path string) map[string]string {
	out := map[string]string{}
	_, q, _ := strings.Cut(path, "?")
	for _, kv := range strings.Split(q, "&") {
		if k, v, ok := strings.Cut(kv, "="); ok {
			out[k] = v
		}
	}
	return out
}

// readClass is the endpoint of a dashboard path.
func readClass(path string) string {
	p, _, _ := strings.Cut(path, "?")
	return strings.TrimPrefix(p, "/v1/")
}

// dashboard cycles the plan's reads closed-loop until stop closes and at
// least minReads completed, checking status and JSON shape of each. It
// stops at the first failed read.
func dashboard(e *env, c *client, reads []string, offset int, stop <-chan struct{}, minReads int) readStats {
	st := readStats{byClass: map[string][]float64{}}
	start := time.Now()
	for i := offset; ; i++ {
		if i-offset >= minReads {
			select {
			case <-stop:
				st.elapsed = time.Since(start)
				return st
			default:
			}
		}
		path := reads[i%len(reads)]
		body, code, d, err := c.get(path)
		st.n++
		if err == nil {
			err = checkRead(e, path, code, body)
		}
		if err != nil {
			// The run has failed; stop rather than spin on a dead server.
			st.failed++
			e.fail("GET %s: %v", path, err)
			st.elapsed = time.Since(start)
			return st
		}
		e.mon.reads.Add(1)
		st.lat = append(st.lat, ms(d))
		cl := readClass(path)
		st.byClass[cl] = append(st.byClass[cl], ms(d))
		st.bytes += int64(len(body))
	}
}

type seriesJSON struct {
	Start  *string    `json:"start"`
	Values []*float64 `json:"values"`
}

// checkRead validates a dashboard response's status and JSON shape.
func checkRead(e *env, path string, code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, body)
	}
	var v struct {
		Seq    *uint64     `json:"seq"`
		Weeks  *int        `json:"weeks"`
		Series *seriesJSON `json:"series"`
		Rows   []struct {
			Key     *string `json:"key"`
			Attacks *int    `json:"attacks"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	switch readClass(path) {
	case "panel", "series":
		if v.Series == nil || v.Series.Start == nil || len(v.Series.Values) != e.man.Weeks {
			return fmt.Errorf("series shape: want %d weekly values", e.man.Weeks)
		}
		for _, x := range v.Series.Values {
			if x == nil || *x < 0 {
				return fmt.Errorf("series value missing or negative")
			}
		}
	case "top":
		if len(v.Rows) == 0 {
			return fmt.Errorf("empty ranking")
		}
		for _, r := range v.Rows {
			if r.Key == nil || r.Attacks == nil {
				return fmt.Errorf("ranking row shape")
			}
		}
	case "status":
		if v.Seq == nil || *v.Seq == 0 || v.Weeks == nil || *v.Weeks != e.man.Weeks {
			return fmt.Errorf("status shape")
		}
	}
	return nil
}

// modelJSON is the /v1/model response shape.
type modelJSON struct {
	Weeks   *int `json:"weeks"`
	Effects []struct {
		Name    string   `json:"name"`
		Percent *float64 `json:"percent"`
	} `json:"effects"`
}

// fitWindow requests /v1/model over scenario weeks [from, to) and checks
// that the takedown effect came back; it returns the latency in ms and
// the fitted percent change.
func fitWindow(e *env, c *client, from, to int) (float64, float64, error) {
	path := "/v1/model?from=" + weekDate(e, from) + "&to=" + weekDate(e, to)
	body, code, d, err := c.get(path)
	if err != nil {
		return 0, 0, err
	}
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("GET %s: status %d: %s", path, code, body)
	}
	var m modelJSON
	if err := json.Unmarshal(body, &m); err != nil {
		return 0, 0, fmt.Errorf("GET %s: %v", path, err)
	}
	if m.Weeks == nil || *m.Weeks != to-from {
		return 0, 0, fmt.Errorf("GET %s: want %d weeks", path, to-from)
	}
	for _, eff := range m.Effects {
		if eff.Name == e.man.Effects[0].Name && eff.Percent != nil && !math.IsNaN(*eff.Percent) {
			return ms(d), *eff.Percent, nil
		}
	}
	return 0, 0, fmt.Errorf("GET %s: no %q effect in %s", path, e.man.Effects[0].Name, body)
}

// analyst issues fresh /v1/model fits over the plan's windows, closed
// loop with think time between a response and the next request, until
// stop closes (after at least one) or the windows run out. Every window
// is distinct, so no request can be a memo hit. g books each completed
// fit's interval.
func analyst(e *env, c *client, windows [][2]int, stop <-chan struct{}, g *gate, think time.Duration) (lat []float64, failed int64) {
	for i, w := range windows {
		if i > 0 {
			select {
			case <-stop:
				return lat, failed
			default:
			}
			if think > 0 {
				select {
				case <-stop:
					return lat, failed
				case <-time.After(think):
				}
			}
		}
		t := time.Now().UnixNano()
		d, _, err := fitWindow(e, c, w[0], w[1])
		if err != nil {
			failed++
			e.fail("%v", err)
			continue
		}
		g.add(t, time.Now().UnixNano())
		lat = append(lat, d)
	}
	return lat, failed
}

// verifyModel checks the fit over the manifest window: through HTTP (the
// returned latency is one fresh-fit sample) and, from the same memo
// entry, against the injected coefficient with Manifest.VerifyFit.
func verifyModel(e *env, s *sut, c *client) (float64, error) {
	d, pct, err := fitWindow(e, c, 0, e.man.Weeks)
	if err != nil {
		return 0, err
	}
	from, to := e.man.Window()
	m, err := s.srv.Engine().Model(from, to)
	if err != nil {
		return 0, err
	}
	if err := e.man.VerifyFit(m); err != nil {
		return 0, err
	}
	eff, err := m.Effect(e.man.Effects[0].Name)
	if err != nil {
		return 0, err
	}
	if math.Abs(eff.Mean-pct) > 1e-9*math.Max(1, math.Abs(pct)) {
		return 0, fmt.Errorf("HTTP model percent %v differs from engine %v", pct, eff.Mean)
	}
	return d, nil
}

// verifyPanel checks the final panel against the manifest, both from the
// pipeline's result and through /v1/panel.
func verifyPanel(e *env, c *client, res *ingest.Result) error {
	if err := e.man.VerifyPanel(res.Global); err != nil {
		return err
	}
	body, code, _, err := c.get("/v1/panel")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET /v1/panel: status %d", code)
	}
	var v struct {
		Final  bool       `json:"final"`
		Series seriesJSON `json:"series"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	if !v.Final || len(v.Series.Values) != e.man.Weeks {
		return fmt.Errorf("GET /v1/panel: final=%v with %d weeks", v.Final, len(v.Series.Values))
	}
	s := timeseries.NewSeries(e.man.StartWeek(), e.man.Weeks)
	for i, x := range v.Series.Values {
		if x == nil {
			return fmt.Errorf("GET /v1/panel: null week %d", i)
		}
		s.Values[i] = *x
	}
	return e.man.VerifyPanel(s)
}

// checkStats fails the run on any datagram the pipeline dropped.
func checkStats(e *env, st ingest.Stats, want uint64) {
	e.layerCount("ingest.late", float64(st.Late))
	e.layerCount("ingest.shed", float64(st.Shed))
	if st.Packets != want || st.UnknownPort != 0 || st.Malformed != 0 || st.Late != 0 || st.Shed != 0 {
		e.fail("pipeline stats: packets %d of %d, unknown %d, malformed %d, late %d, shed %d",
			st.Packets, want, st.UnknownPort, st.Malformed, st.Late, st.Shed)
	}
}

// readPhase is fleet's post-drain read side: the
// analyst fits the given windows alone (fresh fits: each window is new
// to the snapshot's memo), then the dashboard reads alone for minReads
// requests. It returns the reads, with qps over the steal-free slots of
// the dashboard's run, and the steal-gated fit latencies.
func readPhase(e *env, s *sut, reads []string, offset int, windows [][2]int, minReads int) (readStats, []float64) {
	c := newClient(s.srv.Addr())
	defer c.close()
	g := e.gate()
	lat, failed := analyst(e, c, windows, nil, g, 0)
	// Read a quiet heap, as replay does: the fits' garbage is collected
	// first rather than during the reads.
	runtime.GC()
	t0 := time.Now().UnixNano()
	rs := dashboard(e, c, reads, offset, closed, minReads)
	e.ops(rs.n+int64(len(windows)), rs.failed+failed)
	if cs := e.mon.cleanSums(t0, time.Now().UnixNano()); cs.wall > 0 {
		rs.n, rs.failed, rs.elapsed = cs.reads, 0, time.Duration(cs.wall)
	}
	return rs, g.pick(lat)
}

// closed is a stop channel that is always closed: a dashboard run with
// it stops right after its minimum number of reads.
var closed = func() chan struct{} { c := make(chan struct{}); close(c); return c }()
