package serve

// The HTTP face of the serving layer. Encoding is hand-rolled append-style
// JSON in the NDJSONSink tradition: the hot answers (panel, series, top-K)
// are numbers and short ASCII names, so keeping encoding/json's reflection
// off the path makes a query cost little more than the atomic snapshot
// load it starts with. Every endpoint is wrapped in a per-endpoint
// accounting layer — a request counter, an error counter and a full
// log-scale latency histogram (p50/p95/p99 derivable, not just avg/max) —
// and /v1/metrics renders the whole registry in Prometheus text format,
// so one scrape covers the HTTP layer together with whatever pipeline and
// spool metrics share the registry.

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"booters/internal/ingest"
	"booters/internal/its"
	"booters/internal/obs"
	"booters/internal/obs/trace"
	"booters/internal/timeseries"
)

// metricsContentType is the Prometheus text exposition content type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// Server wires an Engine to an HTTP listener: six JSON query endpoints
// plus a metrics endpoint, all GET, all safe under unbounded concurrency.
type Server struct {
	eng    *Engine
	mux    *http.ServeMux
	hs     *http.Server
	lis    net.Listener
	routes []*route

	tr *trace.Tracer
	// lastHead and lastChange back the healthz stall detector: the last
	// watermark head observed and when it last moved.
	lastHead   atomic.Int64
	lastChange atomic.Int64
}

// route is one endpoint's accounting: request/error counters and the
// latency histogram, all registered per path on the server's registry.
type route struct {
	path string
	hits *obs.Counter
	errs *obs.Counter
	lat  *obs.Histogram
}

// New builds a server (and its engine) from cfg; call Start to listen or
// Handler to mount it elsewhere (tests mount it on httptest servers).
func New(cfg Config) *Server {
	s := &Server{eng: NewEngine(cfg), mux: http.NewServeMux(), tr: cfg.Trace}
	s.handle("/v1/status", s.handleStatus)
	s.handle("/v1/panel", s.handlePanel)
	s.handle("/v1/series", s.handleSeries)
	s.handle("/v1/top", s.handleTop)
	s.handle("/v1/model", s.handleModel)
	s.handle("/v1/spool", s.handleSpool)
	s.handle("/v1/trace", s.handleTrace)
	s.handle("/v1/healthz", s.handleHealthz)
	s.handle("/v1/readyz", s.handleReadyz)
	s.handleWith("/v1/metrics", metricsContentType, s.handleMetrics)
	return s
}

// Metrics returns the registry /v1/metrics renders (the engine's).
func (s *Server) Metrics() *obs.Registry { return s.eng.reg }

// Engine returns the server's query engine (shared with the HTTP
// handlers; direct calls skip HTTP but hit the same store and memo).
func (s *Server) Engine() *Engine { return s.eng }

// Publish forwards a snapshot to the engine's store; it is the callback
// to register with ingest.Ingestor.OnSnapshot.
func (s *Server) Publish(snap *ingest.Snapshot) { s.eng.Publish(snap) }

// Handler returns the server's routed handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (host:port; port 0 picks a free port) and serves in a
// background goroutine until Close.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.lis = lis
	s.hs = &http.Server{Handler: s.mux}
	go s.hs.Serve(lis)
	return nil
}

// Addr returns the bound listen address after Start ("" before).
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Close stops the listener; in-flight requests are abandoned (the serving
// layer holds no state that needs draining).
func (s *Server) Close() error {
	if s.hs == nil {
		return nil
	}
	return s.hs.Close()
}

// httpError carries a status code through a handler's error return.
type httpError struct {
	code int
	msg  string
}

// Error renders the message.
func (e *httpError) Error() string { return e.msg }

// handlerFunc is a routed endpoint: it appends the response body to dst
// or returns an error (an *httpError for a specific status).
type handlerFunc func(dst []byte, r *http.Request) ([]byte, error)

// handle registers fn at path as a JSON endpoint with accounting.
func (s *Server) handle(path string, fn handlerFunc) {
	s.handleWith(path, "application/json", fn)
}

// handleWith registers fn at path with accounting and the given success
// content type (errors are always JSON).
func (s *Server) handleWith(path, ctype string, fn handlerFunc) {
	reg := s.eng.reg
	label := obs.L("path", path)
	rt := &route{
		path: path,
		hits: reg.Counter("booters_http_requests_total",
			"HTTP requests served, by path.", label),
		errs: reg.Counter("booters_http_errors_total",
			"HTTP requests answered with an error status, by path.", label),
		lat: reg.Histogram("booters_http_request_seconds",
			"HTTP request latency, by path.", label),
	}
	s.routes = append(s.routes, rt)
	// The route's registration index doubles as its trace lane, so the
	// flight recorder's per-lane rings (and Chrome's per-tid rows) keep
	// endpoints apart.
	lane := len(s.routes) - 1
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tc := s.tr.Root()
		rt.hits.Inc()
		body, err := fn(nil, r)
		if err != nil {
			rt.errs.Inc()
			code := http.StatusBadRequest
			var he *httpError
			if errors.As(err, &he) {
				code = he.code
			} else if errors.Is(err, ErrNoSnapshot) {
				code = http.StatusServiceUnavailable
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			body = append(body, `{"error":`...)
			body = appendJSONString(body, err.Error())
			body = append(body, "}\n"...)
			w.Write(body)
		} else {
			w.Header().Set("Content-Type", ctype)
			w.Write(body)
		}
		dur := time.Since(start)
		if tc.Sampled() {
			s.tr.Record(trace.NameServeQuery, lane, tc, 0, start.UnixNano(), dur.Nanoseconds(), uint64(len(body)))
		}
		rt.lat.Observe(dur)
	})
}

// handleStatus reports the serving state (never 503: a zero status is an
// answer).
func (s *Server) handleStatus(dst []byte, _ *http.Request) ([]byte, error) {
	st := s.eng.Status()
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, st.Seq, 10)
	dst = append(dst, `,"sealed":`...)
	dst = strconv.AppendBool(dst, st.Sealed)
	dst = append(dst, `,"through":`...)
	dst = appendWeek(dst, st.Through, st.Sealed)
	dst = append(dst, `,"final":`...)
	dst = strconv.AppendBool(dst, st.Final)
	dst = append(dst, `,"start":`...)
	dst = appendWeek(dst, st.Start, st.Seq > 0)
	dst = append(dst, `,"weeks":`...)
	dst = strconv.AppendInt(dst, int64(st.Weeks), 10)
	dst = append(dst, `,"attacks":`...)
	dst = strconv.AppendInt(dst, int64(st.Attacks), 10)
	dst = append(dst, `,"flows":`...)
	dst = strconv.AppendInt(dst, int64(st.Flows), 10)
	dst = append(dst, `,"swaps":`...)
	dst = strconv.AppendUint(dst, st.Swaps, 10)
	dst = append(dst, `,"live_packets":`...)
	dst = strconv.AppendUint(dst, st.LivePackets, 10)
	dst = append(dst, `,"live_flows":`...)
	dst = strconv.AppendInt(dst, st.LiveFlows, 10)
	dst = append(dst, `,"live_late":`...)
	dst = strconv.AppendUint(dst, st.LiveLate, 10)
	dst = append(dst, `,"replay_torn":`...)
	dst = strconv.AppendUint(dst, st.ReplayTorn, 10)
	dst = append(dst, `,"replay_unindexed":`...)
	dst = strconv.AppendUint(dst, st.ReplayUnindexed, 10)
	dst = append(dst, `,"freshness_seconds":`...)
	dst = appendJSONFloat(dst, st.FreshnessSeconds)
	dst = append(dst, "}\n"...)
	return dst, nil
}

// handleTrace exports the flight recorder's current spans as Chrome
// trace-event JSON — load the body in chrome://tracing or Perfetto.
// With no tracer configured it serves an empty (but valid) document, so
// dashboards can probe it unconditionally.
func (s *Server) handleTrace(dst []byte, _ *http.Request) ([]byte, error) {
	return trace.AppendTraceEvents(dst, s.tr.Snapshot()), nil
}

// handleReadyz is the readiness probe: 200 once the first snapshot has
// been published (the serving layer can answer queries), 503 before.
func (s *Server) handleReadyz(dst []byte, _ *http.Request) ([]byte, error) {
	if s.eng.Snapshot() == nil {
		return nil, ErrNoSnapshot
	}
	return append(dst, "{\"ready\":true}\n"...), nil
}

// handleHealthz is the liveness probe: 503 only when the attached
// pipeline's watermark has seen packets, is not Final, and has not
// advanced for longer than the stall window — a wedged ingest loop.
// Idle-before-first-packet, finished, and pipeline-less servers are all
// healthy.
func (s *Server) handleHealthz(dst []byte, _ *http.Request) ([]byte, error) {
	if msg, ok := s.live(time.Now()); !ok {
		return nil, &httpError{code: http.StatusServiceUnavailable, msg: msg}
	}
	return append(dst, "{\"ok\":true}\n"...), nil
}

// live implements the healthz stall rule against the watermark head.
func (s *Server) live(now time.Time) (string, bool) {
	in := s.eng.cfg.Ingest
	if in == nil {
		return "", true
	}
	if snap := s.eng.Snapshot(); snap != nil && snap.Final {
		return "", true
	}
	head := in.Head()
	if head.IsZero() {
		return "", true
	}
	hn := head.UnixNano()
	if s.lastHead.Swap(hn) != hn {
		s.lastChange.Store(now.UnixNano())
		return "", true
	}
	since := now.Sub(time.Unix(0, s.lastChange.Load()))
	if since > DefaultStallAfter {
		return fmt.Sprintf("serve: watermark stalled at %s for %s",
			head.UTC().Format(time.RFC3339), since.Round(time.Second)), false
	}
	return "", true
}

// handlePanel returns the current global weekly panel.
func (s *Server) handlePanel(dst []byte, _ *http.Request) ([]byte, error) {
	snap := s.eng.Snapshot()
	if snap == nil {
		return nil, ErrNoSnapshot
	}
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, snap.Seq, 10)
	dst = append(dst, `,"through":`...)
	dst = appendWeek(dst, snap.Through, snap.Sealed)
	dst = append(dst, `,"final":`...)
	dst = strconv.AppendBool(dst, snap.Final)
	dst = append(dst, `,"attacks":`...)
	dst = strconv.AppendInt(dst, int64(snap.Stats.Attacks), 10)
	dst = append(dst, `,"series":`...)
	dst = appendSeries(dst, snap.Global)
	dst = append(dst, "}\n"...)
	return dst, nil
}

// handleSeries returns one weekly series selected by ?country= and/or
// ?proto=.
func (s *Server) handleSeries(dst []byte, r *http.Request) ([]byte, error) {
	q := r.URL.Query()
	country, proto := q.Get("country"), q.Get("proto")
	series, err := s.eng.Series(country, proto)
	if err != nil {
		if errors.Is(err, ErrNoSnapshot) {
			return nil, err
		}
		return nil, &httpError{code: http.StatusNotFound, msg: err.Error()}
	}
	dst = append(dst, `{"country":`...)
	dst = appendJSONString(dst, country)
	dst = append(dst, `,"proto":`...)
	dst = appendJSONString(dst, proto)
	dst = append(dst, `,"series":`...)
	dst = appendSeries(dst, series)
	dst = append(dst, "}\n"...)
	return dst, nil
}

// handleTop returns the top-K ranking selected by ?by=country|protocol
// (default country) and sized by ?k=.
func (s *Server) handleTop(dst []byte, r *http.Request) ([]byte, error) {
	q := r.URL.Query()
	k := 0
	if ks := q.Get("k"); ks != "" {
		n, err := strconv.Atoi(ks)
		if err != nil || n < 1 {
			return nil, &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf("serve: bad k %q", ks)}
		}
		k = n
	}
	by := q.Get("by")
	if by == "" {
		by = "country"
	}
	var rank func(int) ([]timeseries.Ranked, error)
	switch by {
	case "country":
		rank = s.eng.TopCountries
	case "protocol":
		rank = s.eng.TopProtocols
	default:
		return nil, &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf("serve: bad by %q (want country or protocol)", by)}
	}
	rows, err := rank(k)
	if err != nil {
		return nil, err
	}
	dst = append(dst, `{"by":`...)
	dst = appendJSONString(dst, by)
	dst = append(dst, `,"rows":[`...)
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"key":`...)
		dst = appendJSONString(dst, row.Key)
		dst = append(dst, `,"attacks":`...)
		dst = strconv.AppendInt(dst, int64(row.Attacks), 10)
		dst = append(dst, '}')
	}
	dst = append(dst, "]}\n"...)
	return dst, nil
}

// handleModel fits (or serves the memoized fit of) the intervention model
// over ?from=/?to= (RFC 3339 or YYYY-MM-DD; default the whole panel).
func (s *Server) handleModel(dst []byte, r *http.Request) ([]byte, error) {
	snap := s.eng.Snapshot()
	if snap == nil {
		return nil, ErrNoSnapshot
	}
	q := r.URL.Query()
	from := snap.Start.Start
	to := snap.Start.Start.AddDate(0, 0, 7*snap.Weeks)
	if v := q.Get("from"); v != "" {
		t, err := parseTimeParam(v)
		if err != nil {
			return nil, &httpError{code: http.StatusBadRequest, msg: "serve: from: " + err.Error()}
		}
		from = t
	}
	if v := q.Get("to"); v != "" {
		t, err := parseTimeParam(v)
		if err != nil {
			return nil, &httpError{code: http.StatusBadRequest, msg: "serve: to: " + err.Error()}
		}
		to = t
	}
	m, err := s.eng.Model(from, to)
	if err != nil {
		if errors.Is(err, ErrNoSnapshot) {
			return nil, err
		}
		return nil, &httpError{code: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	dst = append(dst, `{"from":`...)
	dst = appendWeek(dst, timeseries.WeekOf(from), true)
	dst = append(dst, `,"to":`...)
	dst = appendWeek(dst, timeseries.WeekOf(to), true)
	dst = append(dst, `,"weeks":`...)
	dst = strconv.AppendInt(dst, int64(m.Series.Len()), 10)
	dst = append(dst, `,"loglik":`...)
	dst = appendJSONFloat(dst, m.Fit.LogLik)
	dst = append(dst, `,"effects":[`...)
	for i, eff := range m.Effects {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendEffect(dst, eff)
	}
	dst = append(dst, "]}\n"...)
	return dst, nil
}

// appendEffect encodes one fitted intervention effect.
func appendEffect(dst []byte, eff its.Effect) []byte {
	dst = append(dst, `{"name":`...)
	dst = appendJSONString(dst, eff.Name)
	dst = append(dst, `,"start":`...)
	dst = appendWeek(dst, eff.Start, true)
	dst = append(dst, `,"weeks":`...)
	dst = strconv.AppendInt(dst, int64(eff.Weeks), 10)
	dst = append(dst, `,"percent":`...)
	dst = appendJSONFloat(dst, eff.Mean)
	dst = append(dst, `,"lower95":`...)
	dst = appendJSONFloat(dst, eff.Lower95)
	dst = append(dst, `,"upper95":`...)
	dst = appendJSONFloat(dst, eff.Upper95)
	dst = append(dst, `,"p":`...)
	dst = appendJSONFloat(dst, eff.P)
	dst = append(dst, '}')
	return dst
}

// handleSpool reports the configured spool directory's segment index.
func (s *Server) handleSpool(dst []byte, _ *http.Request) ([]byte, error) {
	idx, err := s.eng.SpoolInfo()
	if err != nil {
		if errors.Is(err, ErrNoSpool) {
			return nil, &httpError{code: http.StatusNotFound, msg: err.Error()}
		}
		return nil, &httpError{code: http.StatusInternalServerError, msg: err.Error()}
	}
	var records, stored uint64
	dst = append(dst, `{"dir":`...)
	dst = appendJSONString(dst, idx.Dir)
	dst = append(dst, `,"segments":[`...)
	for i, seg := range idx.Segments {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = appendJSONString(dst, seg.Name)
		dst = append(dst, `,"version":`...)
		dst = strconv.AppendInt(dst, int64(seg.Version), 10)
		dst = append(dst, `,"codec":`...)
		dst = appendJSONString(dst, seg.Codec)
		dst = append(dst, `,"records":`...)
		dst = strconv.AppendUint(dst, seg.Records, 10)
		dst = append(dst, `,"stored_bytes":`...)
		dst = strconv.AppendUint(dst, seg.StoredBytes, 10)
		dst = append(dst, `,"indexed":`...)
		dst = strconv.AppendBool(dst, seg.Indexed)
		if seg.Indexed && seg.Records > 0 {
			dst = append(dst, `,"min":"`...)
			dst = seg.Min.UTC().AppendFormat(dst, time.RFC3339)
			dst = append(dst, `","max":"`...)
			dst = seg.Max.UTC().AppendFormat(dst, time.RFC3339)
			dst = append(dst, '"')
		}
		dst = append(dst, '}')
		records += seg.Records
		stored += seg.StoredBytes
	}
	dst = append(dst, `],"records":`...)
	dst = strconv.AppendUint(dst, records, 10)
	dst = append(dst, `,"stored_bytes":`...)
	dst = strconv.AppendUint(dst, stored, 10)
	dst = append(dst, `,"warnings":[`...)
	for i, w := range idx.Warnings {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, w)
	}
	dst = append(dst, "]}\n"...)
	return dst, nil
}

// handleMetrics renders the server's whole metrics registry in Prometheus
// text exposition format: the per-endpoint request counters and latency
// histograms registered by handleWith, the engine's model-cache and store
// gauges, and — when the server shares the process registry — every
// pipeline and spool family too. Scrape-safe under hot ingest: rendering
// is atomic loads only (see internal/obs).
func (s *Server) handleMetrics(dst []byte, _ *http.Request) ([]byte, error) {
	return s.eng.reg.AppendText(dst), nil
}

// RouteQuantile returns the q-quantile of a routed path's request latency
// histogram (0 when the path is unknown or unhit) — the p50/p95/p99
// accessor direct (non-scrape) consumers and tests use.
func (s *Server) RouteQuantile(path string, q float64) time.Duration {
	for _, rt := range s.routes {
		if rt.path == path {
			return rt.lat.Quantile(q)
		}
	}
	return 0
}

// appendSeries encodes a weekly series as {"start":…,"values":[…]}.
func appendSeries(dst []byte, s *timeseries.Series) []byte {
	dst = append(dst, `{"start":`...)
	dst = appendWeek(dst, s.StartWeek, true)
	dst = append(dst, `,"values":[`...)
	for i, v := range s.Values {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONFloat(dst, v)
	}
	dst = append(dst, "]}"...)
	return dst
}

// appendWeek encodes a week as its Monday date, or null when unset.
func appendWeek(dst []byte, w timeseries.Week, ok bool) []byte {
	if !ok {
		return append(dst, "null"...)
	}
	dst = append(dst, '"')
	dst = w.Start.AppendFormat(dst, "2006-01-02")
	return append(dst, '"')
}

// appendJSONFloat encodes a float, mapping NaN and infinities (which JSON
// cannot carry) to null.
func appendJSONFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, "null"...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// appendJSONString encodes a string with the minimal escaping the
// serving layer's values need (quotes, backslashes and control bytes;
// everything it serves is ASCII).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = append(dst, fmt.Sprintf(`\u%04x`, c)...)
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// parseTimeParam parses a query time: RFC 3339 or a bare UTC date.
func parseTimeParam(s string) (time.Time, error) {
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return time.Time{}, fmt.Errorf("%q is neither RFC 3339 nor YYYY-MM-DD", s)
	}
	return t, nil
}
