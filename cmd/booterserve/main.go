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
// Every run has one shape; only the feed differs. Without a spool flag
// the generated stream — the market scenario of -seed/-weeks/-attacks —
// is fed straight to the pipeline. -record DIR spools it to disk first,
// next to its scenario manifest.json, and then replays it from disk (the
// record-once-replay-many workflow, with the spool's segment index
// served at /v1/spool); -replay DIR replays an existing spool, sizing
// the served panel from the spool index's time range. -throttle paces
// ingestion to roughly PPS packets/sec so a multi-week capture takes
// long enough to watch live. -listen HOST:PORT feeds the pipeline from
// networked sensor sessions instead (bootersensor, speaking the framed
// protocol of docs/WIRE_PROTOCOL.md, authenticated with -wire-token):
// the pipeline is order-tolerant — sensors deliver in per-sensor time
// order but interleave arbitrarily — sensors that disconnect resume
// exactly from their last acknowledged record, and the feed ends on
// interrupt, when the collector drains. -scenario NAME|FILE tells the
// collector which scenario workload the sensor fleet is shipping
// (bootersensor -scenario, docs/SCENARIOS.md) and sizes the panel to it.
//
// When the feed ends the pipeline closes, the final panel is published,
// the end-of-run freshness is logged and a self-check queries the server
// over HTTP. A run with a scenario manifest — the generated one, the
// collector's -scenario, or the manifest.json recorded next to a
// replayed spool (booters.Serve reads it) — serves the manifest's
// injected interventions as the /v1/model catalogue, and the final check
// asserts the panel equals the planned counts and the served fit
// recovers every injected effect, failing the process if not; a spool
// without a manifest is served with the paper's Table 1 catalogue,
// unverified. A local feed then keeps answering until interrupted
// (-exit-after-replay exits instead, for smoke tests); the collector
// exits.
//
// A week seals, and is served as complete, as soon as the pipeline's
// low-watermark crosses its end plus one quiet gap; -watermark-every N
// only paces the extra broadcasts that expire quiet flows mid-week.
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
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
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
served at /v1/spool), replayed from an existing spool (-replay DIR,
panel span sized from the spool index), or shipped by networked sensors
(-listen, below). Ingestion can be paced with -throttle so live queries
have something to watch.

When the stream ends the final panel is self-checked over HTTP. With a
scenario manifest (generated, -scenario, or recorded next to the spool)
/v1/model fits the scenario's injected interventions, and the run exits
non-zero unless the final panel equals the planned counts and the
served fit recovers every injected effect. A local feed keeps serving
the final panel until interrupt; the collector exits.

A week seals, and is served as complete, as soon as the pipeline's
low-watermark crosses its end plus one quiet gap; -watermark-every N
only paces the extra broadcasts that expire quiet flows mid-week.

Usage:

  booterserve [-addr HOST:PORT] [-seed N] [-shards N] [-weeks N] [-attacks N]
              [-record DIR [-compress CODEC] | -replay DIR | -listen HOST:PORT]
              [-wire-token TOK] [-scenario NAME|FILE] [-replay-workers N]
              [-throttle PPS] [-exit-after-replay] [-pprof ADDR] [-progress DUR]
              [-log SPEC] [-trace-sample N] [-trace-slow DUR] [-watermark-every N]

-listen turns the process into a collector: networked sensors
(bootersensor) ship record batches over the framed session protocol of
docs/WIRE_PROTOCOL.md, authenticated with -wire-token, resumable after
disconnects, while the panel they feed is served live; interrupt drains
the collector and ends the stream. -scenario sizes the collector to a
scenario workload (docs/SCENARIOS.md) and makes the final self-check
assert that /v1/model recovers the scenario's injected intervention
effects.

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
	wmEvery := flag.Int("watermark-every", 0, "broadcast the pipeline watermark every N packets to expire quiet flows mid-week; smaller N expires them sooner at more broadcast cost, while weeks seal as soon as the watermark crosses their end plus one quiet gap (0 = library default)")
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

	// Pick the panel span and the scenario manifest, the ground truth
	// the final panel is verified against: a replayed spool's span comes
	// from its index and its manifest from the file recorded next to it;
	// a generated workload (the -scenario run, or the market scenario of
	// -seed/-weeks/-attacks) covers its own weeks; the collector without
	// -scenario serves -weeks from streamStart and verifies nothing.
	var (
		start, end time.Time
		packets    []honeypot.Packet
		m          *scenario.Manifest
	)
	switch {
	case rep.Dir != "":
		start, end, err = rep.Span()
		cli.Check(err)
		m, err = scenario.ReadSpoolManifest(rep.Dir)
		cli.Check(err)
	case collector && wl.Spec == "":
		start, end = streamStart, streamStart.AddDate(0, 0, 7*wl.Weeks-1)
	default:
		run, err := wl.Generate(slg)
		cli.Check(err)
		start, end, m = run.Config.Start, run.Config.End(), run.Manifest
		if !collector {
			packets = run.Stream()
		}
	}
	spoolDir := rep.Dir
	if rec.Dir != "" {
		cli.Check(rec.Write(logs, prof.Progress, packets, m))
		spoolDir = rec.Dir
	}

	in, err := ingest.New(ingest.Config{
		Shards:  *shards,
		Start:   start,
		End:     end,
		Rolling: true,
		// Sensors deliver in per-sensor time order but interleave
		// arbitrarily; a reordered recording is fed the segment
		// trailers' low-watermark.
		Unordered:      collector || (m != nil && m.RequiresUnordered()),
		WatermarkEvery: *wmEvery,
		Metrics:        obs.Default(),
		Trace:          tr,
	})
	cli.Check(err)
	// Serve fits a spool's recorded manifest (the Table 1 catalogue when
	// it has none); an unrecorded scenario run brings its manifest along.
	var srv *serve.Server
	if m != nil && spoolDir == "" {
		srv, err = booters.ServeScenario(in, *addr, m)
	} else {
		srv, err = booters.Serve(in, *addr, spoolDir)
	}
	cli.Check(err)
	defer srv.Close()
	var col *wire.Collector
	if collector {
		col, err = wire.Listen(listen.Addr, wire.CollectorConfig{
			Ingest:  in,
			Token:   listen.Token,
			Metrics: in.Metrics(),
			Trace:   tr,
			Logf:    cli.Logf(logs.Logger("wire")),
		})
		cli.Check(err)
		slg.Info("collecting sensor sessions", "addr", col.Addr().String(),
			"panel_start", start.Format("2006-01-02"), "panel_end", end.Format("2006-01-02"))
	}
	slg.Info("serving", "url", "http://"+srv.Addr(),
		"endpoints", "/v1/status /v1/panel /v1/top /v1/model /v1/spool /v1/metrics /v1/trace /v1/healthz /v1/readyz")

	reg := in.Metrics()
	stopProgress := logs.StartProgress(prof.Progress, func() []obs.Field {
		fields := []obs.Field{obs.F("packets", in.Packets()), obs.F("late", in.Late())}
		if col != nil {
			fields = append(fields, obs.F("sessions", col.Sessions()))
		}
		if n, ok := reg.Sum("booters_wire_records_total"); ok {
			fields = append(fields, obs.F("records", uint64(n)))
		}
		if seq, ok := reg.Sum("booters_snapshot_seq"); ok {
			fields = append(fields, obs.F("seq", uint64(seq)))
		}
		if lag, ok := reg.Sum("booters_ingest_watermark_lag_seconds"); ok {
			fields = append(fields, obs.F("lag_s", fmt.Sprintf("%.1f", lag)))
		}
		return fields
	})

	// Feed the pipeline while the server answers queries: the sensor
	// fleet until interrupt, the spool replay, or the generated stream.
	feedStart := time.Now()
	pace := newPacer(*throttle)
	switch {
	case col != nil:
		waitForInterrupt()
		slg.Info("interrupt: draining collector and sealing the panel")
		col.Close()
	case spoolDir != "":
		opts := spool.ReplayOptions{Workers: rep.Workers, Metrics: obs.Default(), Trace: tr}
		var src *ingest.Source
		if in.Unordered() {
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
	default:
		for _, p := range packets {
			cli.Check(in.Ingest(p))
			pace.tick()
		}
	}
	res, err := in.Close()
	cli.Check(err)
	stopProgress()
	elapsed := time.Since(feedStart)
	slg.Info("ingest finished",
		"packets", res.Stats.Packets, "elapsed", elapsed.Round(time.Millisecond),
		"rate", fmt.Sprintf("%.0f/s", float64(res.Stats.Packets)/elapsed.Seconds()),
		"flows", res.Stats.Flows, "attacks", res.Stats.Attacks, "scans", res.Stats.Scans)
	logFinalFreshness(slg, in)
	selfCheck(slg, srv.Addr())
	if m != nil {
		cli.Check(verifyScenario(slg, srv, m, res.Global))
	}

	if collector || *exitAfter {
		return
	}
	slg.Info("final panel published; serving until interrupt", "url", "http://"+srv.Addr())
	waitForInterrupt()
}

// waitForInterrupt blocks until the process receives SIGINT or SIGTERM.
func waitForInterrupt() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
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
// manifest stakes a tolerance on any effect the served model must
// recover it. The model check GETs /v1/model over the scenario span
// through real HTTP, then holds the memoized fit that response encodes
// to Manifest.VerifyFit.
func verifyScenario(slg *slog.Logger, srv *serve.Server, m *scenario.Manifest, global *timeseries.Series) error {
	if err := m.VerifyPanel(global); err != nil {
		return err
	}
	slg.Info("scenario panel verified", "name", m.Name, "weeks", m.Weeks)
	if !slices.ContainsFunc(m.Effects, func(e scenario.InjectedEffect) bool { return e.CoefTolerance > 0 }) {
		return nil
	}
	from, to := m.Window()
	path := fmt.Sprintf("/v1/model?from=%s&to=%s", from.Format("2006-01-02"), to.Format("2006-01-02"))
	if _, err := get(srv.Addr(), path); err != nil {
		return fmt.Errorf("scenario model check %s: %w", path, err)
	}
	model, err := srv.Engine().Model(from, to)
	if err == nil {
		err = m.VerifyFit(model)
	}
	if err != nil {
		return fmt.Errorf("scenario model check %s: %w", path, err)
	}
	for _, want := range m.Effects {
		if want.CoefTolerance <= 0 {
			continue
		}
		got, _ := model.Effect(want.Name) // VerifyFit found every asserted effect
		slg.Info("scenario effect recovered", "path", path, "effect", want.Name,
			"fitted_pct", fmt.Sprintf("%.1f", got.Mean), "injected_pct", fmt.Sprintf("%.1f", want.ExpectedMeanPct))
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
