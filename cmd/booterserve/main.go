// Command booterserve is the live side of the reproduction: it drives a
// packet stream — generated from the booter-market simulator, or recorded
// to / replayed from an on-disk spool — through a rolling ingestion
// pipeline while serving the accumulating weekly attack panel over an
// HTTP JSON query API, so dashboards and model fits run against the
// capture while it is still being ingested.
//
// Usage:
//
//	booterserve [-addr HOST:PORT] [-seed N] [-shards N] [-weeks N] [-attacks N]
//	            [-record DIR [-compress CODEC] | -replay DIR | -listen HOST:PORT]
//	            [-wire-token TOK] [-scenario NAME|FILE] [-replay-workers N]
//	            [-throttle PPS] [-exit-after-replay] [-pprof ADDR] [-progress DUR]
//	            [-log SPEC] [-trace-sample N] [-trace-slow DUR] [-watermark-every N]
//
// Without a spool flag the generated stream — the market scenario of
// -seed/-weeks/-attacks — is fed straight to the pipeline. -record DIR
// spools it to disk first, next to its scenario manifest.json, and then
// replays it from disk (the record-once-replay-many workflow, with the
// spool's segment index served at /v1/spool); -replay DIR replays an
// existing spool, sizing the served panel from the spool index's time
// range. -throttle paces ingestion to roughly PPS packets/sec so a
// multi-week capture takes long enough to watch live. When the replay
// finishes the pipeline closes, the final panel is published, a
// self-check queries the server over HTTP, and the server keeps
// answering until interrupted (-exit-after-replay exits instead, for
// smoke tests). A run with a scenario manifest — the generated one, or
// the manifest.json recorded next to a replayed spool — serves the
// manifest's injected interventions as the /v1/model catalogue, and the
// final check asserts the panel equals the planned counts and the served
// fit recovers every injected effect, failing the process if not; a
// spool without a manifest is served with the paper's Table 1
// catalogue, unverified.
//
// -listen HOST:PORT is the collector mode: instead of feeding itself,
// the process accepts networked sensor sessions (bootersensor, speaking
// the framed protocol of docs/WIRE_PROTOCOL.md, authenticated with
// -wire-token) on that address and serves the accumulating panel while
// the fleet ships. The pipeline is order-tolerant — sensors deliver in
// per-sensor time order but interleave arbitrarily — and sensors that
// disconnect resume exactly from their last acknowledged record.
// Interrupt to stop: the collector drains, the pipeline closes, and the
// final panel is published and self-checked. -scenario NAME|FILE tells
// the collector which scenario workload the sensor fleet is shipping
// (bootersensor -scenario, docs/SCENARIOS.md): the panel span and the
// /v1/model intervention catalogue come from the scenario manifest, and
// the final self-check asserts the served model fit recovers the
// injected effects — failing the process if it does not.
//
// The whole pipeline is instrumented through internal/obs: /v1/metrics
// serves the Prometheus text exposition (ingest, spool, wire, serving
// and model-cache families from one registry), -progress DUR emits a
// structured slog status record to stderr every DUR, and -pprof ADDR
// serves the net/http/pprof profiles. All stderr output is structured
// logging (log/slog text); -log sets per-subsystem levels, e.g.
// "-log info,wire=debug". -trace-sample N turns on the pipeline flight
// recorder (docs/TRACING.md): one batch in N is traced end to end and
// /v1/trace serves the recent spans as a Chrome trace-event document,
// with spans slower than -trace-slow pinned and promoted to warning
// logs regardless of sampling. /v1/healthz and /v1/readyz expose
// liveness (watermark advancing) and readiness (first snapshot
// published) probes.
//
// Endpoints: /v1/status, /v1/panel, /v1/series?country=C&proto=P,
// /v1/top?by=country|protocol&k=N, /v1/model?from=T&to=T, /v1/spool,
// /v1/metrics, /v1/trace, /v1/healthz, /v1/readyz.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"booters"
	"booters/internal/cli"
	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/obs/trace"
	"booters/internal/scenario"
	"booters/internal/serve"
	"booters/internal/spool"
	"booters/internal/timeseries"
	"booters/internal/wire"
)

const usageText = `booterserve ingests a reflected-UDP packet stream through a rolling
pipeline while serving the accumulating weekly attack panel over an HTTP
JSON API: current panel, per-country/protocol weekly series, top-K
rankings, spool index stats, and on-demand intervention-model fits over
any week window (memoized per snapshot). The stream is generated from
the booter-market simulator, optionally recorded to an on-disk spool
first (-record DIR, the spool then replays from disk and its index is
served at /v1/spool), or replayed from an existing spool (-replay DIR,
panel span sized from the spool index). Ingestion can be paced with
-throttle so live queries have something to watch; after the stream
ends the final panel keeps being served until interrupt. With a
scenario manifest (generated, or recorded next to the spool) /v1/model
fits the scenario's injected interventions, and the run exits non-zero
unless the final panel equals the planned counts and the served fit
recovers every injected effect.

Usage:

  booterserve [-addr HOST:PORT] [-seed N] [-shards N] [-weeks N] [-attacks N]
              [-record DIR [-compress CODEC] | -replay DIR | -listen HOST:PORT]
              [-wire-token TOK] [-scenario NAME|FILE] [-replay-workers N]
              [-throttle PPS] [-exit-after-replay] [-pprof ADDR] [-progress DUR]
              [-log SPEC] [-trace-sample N] [-trace-slow DUR] [-watermark-every N]

-listen turns the process into a collector: networked sensors
(bootersensor) ship record batches over the framed session protocol of
docs/WIRE_PROTOCOL.md, authenticated with -wire-token, resumable after
disconnects, while the panel they feed is served live. -scenario sizes
the collector to a scenario workload (docs/SCENARIOS.md) and makes the
final self-check assert that /v1/model recovers the scenario's injected
intervention effects.

Endpoints: /v1/status /v1/panel /v1/series /v1/top /v1/model /v1/spool
/v1/metrics (Prometheus text exposition) /v1/trace (Chrome trace-event
flight recorder, -trace-sample to enable) /v1/healthz /v1/readyz

Flags:

`

// streamStart is the first day of the generated market scenario and of
// the collector's default panel span.
var streamStart = time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC)

func main() {
	cli.Init("booterserve", usageText)
	fs := flag.CommandLine
	addr := flag.String("addr", "127.0.0.1:8190", "HTTP listen address (port 0 picks a free port)")
	wl := cli.WorkloadFlags(fs, "collector mode: expect this scenario workload and verify /v1/model recovers its injected effects",
		streamStart, 52, 500)
	shards := cli.Shards(fs)
	rec := cli.RecordFlags(fs, "spool the generated stream to this directory, then replay it from disk")
	rep := cli.ReplayFlags(fs, "replay an existing spool from this directory")
	listen := cli.WireFlags(fs, "listen", "collector mode: accept networked sensor sessions on this address", "wire-token")
	throttle := flag.Float64("throttle", 0, "pace ingestion to about this many packets/sec (0 = full speed)")
	exitAfter := flag.Bool("exit-after-replay", false, "exit after the stream ends instead of serving until interrupt")
	prof := cli.ProfileFlags(fs)
	logFlags := cli.LogFlags(fs)
	wmEvery := flag.Int("watermark-every", 0, "broadcast the pipeline watermark every N packets; smaller N seals weeks sooner at more broadcast cost (0 = library default)")
	flag.Parse()

	if wl.List(os.Stdout) {
		return
	}
	collector := listen.Addr != ""
	cli.Check(
		cli.Exclusive(fs, "record", "replay", "listen"),
		cli.Only(fs, collector, "collector mode (-listen; feed scenarios locally with booteringest -scenario)", "wire-token", "scenario"),
		cli.Only(fs, !collector, "a local feed (not -listen)", "throttle", "exit-after-replay"),
		cli.Only(fs, rep.Dir == "" && !collector, "generated streams (a replayed spool or the sensor fleet fixes the workload)", "seed", "attacks"),
		cli.Only(fs, rep.Dir == "" && wl.Spec == "", "generated streams and the collector's default span (a replayed spool or a scenario fixes the span)", "weeks"),
		cli.Only(fs, rec.Dir != "" || rep.Dir != "", "spool replays (-record or -replay)", "replay-workers"),
		cli.Only(fs, rec.Dir != "", "-record", "compress"),
	)
	logs, tr, err := logFlags.Open(os.Stderr)
	cli.Check(err)
	slg := logs.Logger("serve")
	cli.Check(prof.ServePprof(slg))
	if collector {
		collectorMode(listen, wl, *addr, *shards, *wmEvery, prof.Progress, logs, tr)
		return
	}

	// Pick the stream and the panel span: the generated market scenario
	// covers its own weeks (recorded to disk first with -record, then
	// replayed from there); a replayed spool's span comes from its index.
	// Either way the scenario manifest — generated, or recorded next to
	// the spool — sets the /v1/model catalogue and is the ground truth
	// the final panel is verified against.
	var (
		start, end time.Time
		packets    []honeypot.Packet
		m          *scenario.Manifest
	)
	spoolDir := rep.Dir
	if rep.Dir != "" {
		start, end, err = rep.Span()
		cli.Check(err)
		m, err = rep.Manifest()
		cli.Check(err)
	} else {
		run, err := wl.Generate(slg)
		cli.Check(err)
		start, end, packets, m = run.Config.Start, run.Config.End(), run.Stream(), run.Manifest
	}
	if rec.Dir != "" {
		cli.Check(rec.Write(logs, prof.Progress, packets, m))
		spoolDir = rec.Dir
	}
	// A reordered recording needs the order-tolerant path, driven by the
	// segment trailers' low-watermark.
	unordered := m != nil && m.RequiresUnordered()

	in, err := ingest.New(ingest.Config{
		Shards:         *shards,
		Start:          start,
		End:            end,
		Rolling:        true,
		Unordered:      unordered,
		WatermarkEvery: *wmEvery,
		Metrics:        obs.Default(),
		Trace:          tr,
	})
	cli.Check(err)
	var srv *serve.Server
	if m != nil {
		srv, err = booters.ServeScenario(in, *addr, m, spoolDir)
	} else {
		srv, err = booters.Serve(in, *addr, spoolDir)
	}
	cli.Check(err)
	defer srv.Close()
	slg.Info("serving", "url", "http://"+srv.Addr(),
		"endpoints", "/v1/status /v1/panel /v1/top /v1/model /v1/trace /v1/healthz /v1/readyz")

	// Feed the pipeline while the server answers queries.
	stopProgress := logs.StartProgress(prof.Progress, func() []obs.Field {
		fields := []obs.Field{obs.F("packets", in.Packets()), obs.F("late", in.Late())}
		reg := in.Metrics()
		if seq, ok := reg.Sum("booters_snapshot_seq"); ok {
			fields = append(fields, obs.F("seq", uint64(seq)))
		}
		if lag, ok := reg.Sum("booters_ingest_watermark_lag_seconds"); ok {
			fields = append(fields, obs.F("lag_s", fmt.Sprintf("%.1f", lag)))
		}
		return fields
	})
	feedStart := time.Now()
	pace := newPacer(*throttle)
	if spoolDir != "" {
		opts := spool.ReplayOptions{Workers: rep.Workers, Metrics: obs.Default(), Trace: tr}
		var src *ingest.Source
		if unordered {
			src = in.RegisterSource()
			opts.OnWatermark = src.Advance
		}
		stats, err := spool.ReplayWindow(spoolDir, opts, func(d ingest.Datagram) error {
			in.IngestDatagram(d) // decode drops are counted in Stats
			pace.tick()
			return nil
		})
		if src != nil {
			src.Close()
		}
		cli.Check(err)
		splg := logs.Logger("spool")
		for _, w := range stats.Warnings {
			splg.Warn("replay warning", "detail", w)
		}
		for _, torn := range stats.Torn {
			splg.Error("data loss", "segment", torn.Segment, "reason", torn.Reason, "recovered", torn.Records)
		}
	} else {
		for _, p := range packets {
			cli.Check(in.Ingest(p))
			pace.tick()
		}
	}
	fed := in.Packets()
	res, err := in.Close()
	cli.Check(err)
	stopProgress()
	elapsed := time.Since(feedStart)
	slg.Info("ingest finished",
		"packets", fed, "elapsed", elapsed.Round(time.Millisecond),
		"rate", fmt.Sprintf("%.0f/s", float64(res.Stats.Packets)/elapsed.Seconds()),
		"flows", res.Stats.Flows, "attacks", res.Stats.Attacks, "scans", res.Stats.Scans)
	logFinalFreshness(slg, in)
	selfCheck(slg, srv.Addr())
	if m != nil {
		cli.Check(verifyScenario(slg, srv.Addr(), m, res.Global))
	}

	if *exitAfter {
		return
	}
	slg.Info("final panel published; serving until interrupt", "url", "http://"+srv.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}

// collectorMode runs the sensor-fed half of the reproduction: a wire
// collector accepting bootersensor sessions on the -listen address,
// feeding an order-tolerant rolling pipeline whose panel is served on
// addr until interrupt. On interrupt the collector drains, the pipeline
// closes and the final panel is published and self-checked. With a
// scenario the panel span and the /v1/model intervention catalogue come
// from the scenario's manifest, and the self-check additionally asserts
// over real HTTP that the model fit recovers every injected effect
// inside its tolerance — the networked end of the scenario regression
// loop.
func collectorMode(listen *cli.Wire, wl *cli.Workload, addr string, shards, wmEvery int, progressEvery time.Duration, logs *obs.Log, tr *trace.Tracer) {
	slg := logs.Logger("collector")
	start, weeks := streamStart, wl.Weeks
	var manifest *scenario.Manifest
	if wl.Spec != "" {
		run, err := wl.Generate(slg)
		cli.Check(err)
		manifest = run.Manifest
		start = run.Config.Start
		weeks = manifest.Weeks
	}
	in, err := ingest.New(ingest.Config{
		Shards:         shards,
		Start:          start,
		End:            start.AddDate(0, 0, 7*weeks-1),
		Rolling:        true,
		Unordered:      true,
		WatermarkEvery: wmEvery,
		Metrics:        obs.Default(),
		Trace:          tr,
	})
	cli.Check(err)
	var srv *serve.Server
	if manifest != nil {
		srv, err = booters.ServeScenario(in, addr, manifest)
	} else {
		srv, err = booters.Serve(in, addr, "")
	}
	cli.Check(err)
	defer srv.Close()
	col, err := wire.Listen(listen.Addr, wire.CollectorConfig{
		Ingest:  in,
		Token:   listen.Token,
		Metrics: in.Metrics(),
		Trace:   tr,
		Logf:    cli.Logf(logs.Logger("wire")),
	})
	cli.Check(err)
	slg.Info("collecting sensor sessions", "addr", col.Addr().String(),
		"panel_start", start.Format("2006-01-02"), "weeks", weeks)
	slg.Info("serving", "url", "http://"+srv.Addr(),
		"endpoints", "/v1/status /v1/panel /v1/metrics /v1/trace /v1/healthz /v1/readyz")

	reg := in.Metrics()
	stopProgress := logs.StartProgress(progressEvery, func() []obs.Field {
		fields := []obs.Field{
			obs.F("packets", in.Packets()),
			obs.F("sessions", col.Sessions()),
		}
		if n, ok := reg.Sum("booters_wire_records_total"); ok {
			fields = append(fields, obs.F("records", uint64(n)))
		}
		if lag, ok := reg.Sum("booters_ingest_watermark_lag_seconds"); ok {
			fields = append(fields, obs.F("lag_s", fmt.Sprintf("%.1f", lag)))
		}
		return fields
	})

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	slg.Info("interrupt: draining collector and sealing the panel")
	col.Close()
	res, err := in.Close()
	cli.Check(err)
	stopProgress()
	slg.Info("collection finished", "packets", res.Stats.Packets,
		"flows", res.Stats.Flows, "attacks", res.Stats.Attacks, "scans", res.Stats.Scans)
	logFinalFreshness(slg, in)
	selfCheck(slg, srv.Addr())
	if manifest != nil {
		cli.Check(verifyScenario(slg, srv.Addr(), manifest, res.Global))
	}
}

// selfCheck asserts that the final panel is queryable over real HTTP and
// logs the head of each response.
func selfCheck(slg *slog.Logger, addr string) {
	for _, path := range []string{"/v1/status", "/v1/panel"} {
		body, err := get(addr, path)
		if err != nil {
			log.Fatalf("self-check %s: %v", path, err)
		}
		if len(body) > 120 {
			body = append(body[:120], "..."...)
		}
		slg.Info("self-check", "path", path, "body", string(body))
	}
}

// logFinalFreshness emits the end-of-run freshness/lag summary: how far
// the stream head ran past the last sealed week when the panel became
// final, how many event-to-queryable latencies the freshness histogram
// observed along the way, and the final watermark lag gauge.
func logFinalFreshness(slg *slog.Logger, in *ingest.Ingestor) {
	attrs := []any{}
	if head := in.Head(); !head.IsZero() {
		if snap := in.Snapshot(); snap != nil && snap.Sealed {
			if lag := head.Sub(snap.Through.Start.AddDate(0, 0, 7)); lag > 0 {
				attrs = append(attrs, "freshness_s", fmt.Sprintf("%.1f", lag.Seconds()))
			}
		}
	}
	reg := in.Metrics()
	if n, ok := reg.Sum("booters_freshness_event_to_queryable_seconds"); ok {
		attrs = append(attrs, "freshness_observations", uint64(n))
	}
	if lag, ok := reg.Sum("booters_ingest_watermark_lag_seconds"); ok {
		attrs = append(attrs, "watermark_lag_s", fmt.Sprintf("%.1f", lag))
	}
	slg.Info("final freshness", attrs...)
}

// verifyScenario checks a finished run against its scenario manifest:
// the final weekly panel must equal the planned counts, and when the
// manifest stakes a tolerance on any effect the served /v1/model fit
// must recover it (verifyModelHTTP).
func verifyScenario(slg *slog.Logger, addr string, m *scenario.Manifest, global *timeseries.Series) error {
	if err := m.VerifyPanel(global); err != nil {
		return err
	}
	slg.Info("scenario panel verified", "name", m.Name, "weeks", m.Weeks)
	if !slices.ContainsFunc(m.Effects, func(e scenario.InjectedEffect) bool { return e.CoefTolerance > 0 }) {
		return nil
	}
	return verifyModelHTTP(slg, addr, m)
}

// verifyModelHTTP asserts over real HTTP that the served /v1/model fit
// over the scenario span recovers every effect the manifest stakes a
// tolerance on: the fitted percent change is folded back to the log
// coefficient and compared against the injected ground truth.
func verifyModelHTTP(slg *slog.Logger, addr string, m *scenario.Manifest) error {
	from, to := m.Window()
	path := fmt.Sprintf("/v1/model?from=%s&to=%s", from.Format("2006-01-02"), to.Format("2006-01-02"))
	body, err := get(addr, path)
	if err != nil {
		return fmt.Errorf("scenario model check %s: %w", path, err)
	}
	var fit struct {
		Effects []struct {
			Name    string  `json:"name"`
			Percent float64 `json:"percent"`
		} `json:"effects"`
	}
	if err := json.Unmarshal(body, &fit); err != nil {
		return fmt.Errorf("scenario model check: decode %s: %w", path, err)
	}
	fitted := make(map[string]float64, len(fit.Effects))
	for _, e := range fit.Effects {
		fitted[e.Name] = e.Percent
	}
	for _, want := range m.Effects {
		if want.CoefTolerance <= 0 {
			continue
		}
		pct, ok := fitted[want.Name]
		if !ok {
			return fmt.Errorf("scenario model check: /v1/model fit has no effect %q", want.Name)
		}
		coef := math.Log(1 + pct/100)
		if diff := math.Abs(coef - want.ExpectedCoef); diff > want.CoefTolerance {
			return fmt.Errorf("scenario model check: effect %q: served fit %.4f vs injected %.4f (|diff| %.4f > tolerance %.4f)",
				want.Name, coef, want.ExpectedCoef, diff, want.CoefTolerance)
		}
		slg.Info("scenario effect recovered", "path", path, "effect", want.Name,
			"fitted_pct", fmt.Sprintf("%.1f", pct), "injected_pct", fmt.Sprintf("%.1f", want.ExpectedMeanPct))
	}
	return nil
}

// get fetches one path from the server and returns the trimmed body.
func get(addr, path string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	if n := len(body); n > 0 && body[n-1] == '\n' {
		body = body[:n-1]
	}
	return body, nil
}

// pacer throttles a feed loop to a target packets/sec without a syscall
// per packet: it checks the clock every batch and sleeps off any lead.
type pacer struct {
	pps     float64
	sent    int
	started time.Time
}

// newPacer returns a pacer for the target rate; pps <= 0 disables pacing.
func newPacer(pps float64) *pacer { return &pacer{pps: pps, started: time.Now()} }

// tick books one packet and sleeps when the feed is ahead of schedule.
func (p *pacer) tick() {
	if p.pps <= 0 {
		return
	}
	p.sent++
	if p.sent%256 != 0 {
		return
	}
	ahead := time.Duration(float64(p.sent)/p.pps*float64(time.Second)) - time.Since(p.started)
	if ahead > time.Millisecond {
		time.Sleep(ahead)
	}
}
