// Command bootersensor is the sensor half of the networked capture
// path: it ships a reflected-UDP record stream — a recorded on-disk
// spool, or a stream generated from the booter-market simulator — to a
// collector (booterserve -listen) over the framed session protocol of
// docs/WIRE_PROTOCOL.md, and exits once the collector has acknowledged
// the stream's final record.
//
// Usage:
//
//	bootersensor -collector HOST:PORT [-token TOK] [-sensor N]
//	             [-spool DIR | -scenario NAME|FILE | -seed N -weeks N -attacks N]
//	             [-batch N] [-heartbeat DUR] [-linger DUR]
//	             [-pprof ADDR] [-progress DUR] [-log SPEC]
//	             [-trace-sample N] [-trace-slow DUR]
//
// -spool DIR ships an existing spool directory (recorded with
// booterserve -record, booteringest -record, or bootersensor itself on
// an earlier run); -scenario NAME|FILE ships a scenario workload from
// the internal/scenario catalog (docs/SCENARIOS.md) so a collector can
// verify intervention-fit recovery against the scenario's ground truth;
// without either, the synthetic stream described by
// -seed/-weeks/-attacks is generated in memory and shipped. Connection
// loss redials with exponential backoff and resumes exactly from the
// collector's last acknowledged offset, so interrupting and restarting
// a shipment never loses or duplicates a record. -linger turns the
// sensor into a live tail that keeps the session open — heartbeating,
// shipping whatever appears in the spool — until the feed has stayed
// dry that long.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/obs/trace"
	"booters/internal/scenario"
	"booters/internal/wire"
)

const usageText = `bootersensor ships a reflected-UDP record stream to a collector
(booterserve -listen) over the framed, authenticated, resumable session
protocol: batches carry spool-format records, acks are cumulative record
offsets, and a reconnect resumes exactly where the collector's last ack
left off — no loss, no duplication. The stream is an existing spool
directory (-spool), a scenario workload with recorded ground truth
(-scenario, see docs/SCENARIOS.md; list prints the catalog), or a
synthetic market-driven stream generated in memory
(-seed/-weeks/-attacks).

Usage:

  bootersensor -collector HOST:PORT [-token TOK] [-sensor N]
               [-spool DIR | -scenario NAME|FILE | -seed N -weeks N -attacks N]
               [-batch N] [-heartbeat DUR] [-linger DUR]
               [-pprof ADDR] [-progress DUR] [-log SPEC]
               [-trace-sample N] [-trace-slow DUR]

Flags:

`

func main() {
	log.SetFlags(0)
	log.SetPrefix("bootersensor: ")
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), usageText)
		flag.PrintDefaults()
	}
	collector := flag.String("collector", "", "collector address (required; booterserve -listen)")
	token := flag.String("token", "", "shared secret presented in the handshake")
	sensorID := flag.Uint("sensor", 1, "sensor ID; the collector keys resume offsets by it")
	spoolDir := flag.String("spool", "", "ship this recorded spool directory instead of a generated stream")
	scenarioFlag := flag.String("scenario", "", "ship a scenario workload: catalog name, config file, or list")
	seed := flag.Int64("seed", 20191021, "stream generator seed")
	weeks := flag.Int("weeks", 4, "generated stream length in weeks")
	attacks := flag.Float64("attacks", 500, "mean attack flows per week")
	batch := flag.Int("batch", wire.DefaultBatchRecords, "records per batch frame")
	heartbeat := flag.Duration("heartbeat", wire.DefaultHeartbeat, "idle interval between heartbeats (keep under the collector's dead-session deadline)")
	linger := flag.Duration("linger", 0, "live-tail: keep the session open until the feed stays dry this long (0 = finish at end of feed)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof profiles on this address (empty = off)")
	progressEvery := flag.Duration("progress", 0, "emit a structured progress line to stderr this often (0 = off)")
	logSpec := flag.String("log", "info", "log level spec: LEVEL[,SUBSYSTEM=LEVEL]... (e.g. info,wire=debug)")
	traceSample := flag.Int("trace-sample", 0, "trace one shipped batch in N; trace context rides the batch frames to the collector (0 = off)")
	traceSlow := flag.Duration("trace-slow", 250*time.Millisecond, "pin and log spans at least this slow regardless of sampling")
	flag.Parse()

	if *scenarioFlag == "list" {
		for _, name := range scenario.Names() {
			fmt.Printf("%-20s %s\n", name, scenario.Describe(name))
		}
		return
	}
	if *collector == "" {
		flag.Usage()
		os.Exit(2)
	}
	logs, err := obs.NewLog(os.Stderr, *logSpec)
	if err != nil {
		log.Fatalf("-log: %v", err)
	}
	slg := logs.Logger("sensor")
	var tr *trace.Tracer
	if *traceSample > 0 {
		tr = trace.New(trace.Config{
			SampleEvery:   *traceSample,
			SlowThreshold: *traceSlow,
			Log:           logs.Logger("trace"),
		})
	}
	if *pprofAddr != "" {
		_, bound, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			log.Fatalf("-pprof: %v", err)
		}
		slg.Info("pprof serving", "url", "http://"+bound+"/debug/pprof/")
	}
	if (*spoolDir != "" || *scenarioFlag != "") && (*weeks != 4 || *attacks != 500) {
		log.Fatal("-weeks/-attacks only apply to generated streams (the spool or scenario fixes the workload)")
	}
	if *spoolDir != "" && *scenarioFlag != "" {
		log.Fatal("-spool and -scenario are mutually exclusive")
	}

	var feed wire.Feed
	if *spoolDir != "" {
		sf := wire.NewSpoolFeed(*spoolDir)
		defer sf.Close()
		feed = sf
	} else if *scenarioFlag != "" {
		cfg, err := scenario.Load(*scenarioFlag)
		if err != nil {
			log.Fatal(err)
		}
		genStart := time.Now()
		run, err := scenario.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		m := run.Manifest
		slg.Info("scenario generated", "name", m.Name, "packets", len(run.Stream()),
			"attacks", m.Attacks, "scans", m.Scans, "weeks", m.Weeks,
			"elapsed", time.Since(genStart).Round(time.Millisecond))
		slg.Info("collector panel span", "start", run.Config.Start.Format("2006-01-02"),
			"weeks", m.Weeks, "hint", "booterserve -listen ... -scenario "+*scenarioFlag)
		feed = wire.NewSliceFeed(ingest.Datagrams(run.Stream()))
	} else {
		genStart := time.Now()
		packets, err := ingest.SyntheticStream(ingest.StreamConfig{
			Seed:           *seed,
			Start:          time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC),
			Weeks:          *weeks,
			AttacksPerWeek: *attacks,
		})
		if err != nil {
			log.Fatal(err)
		}
		slg.Info("generated stream", "packets", len(packets), "weeks", *weeks,
			"elapsed", time.Since(genStart).Round(time.Millisecond))
		feed = wire.NewSliceFeed(ingest.Datagrams(packets))
	}

	reg := obs.Default()
	stopProgress := logs.StartProgress(*progressEvery, func() []obs.Field {
		fields := []obs.Field{}
		if n, ok := reg.Sum("booters_wire_sensor_records_total"); ok {
			fields = append(fields, obs.F("records", uint64(n)))
		}
		if n, ok := reg.Sum("booters_wire_sensor_acked_offset"); ok {
			fields = append(fields, obs.F("acked", uint64(n)))
		}
		if n, ok := reg.Sum("booters_wire_sensor_dials_total"); ok {
			fields = append(fields, obs.F("dials", uint64(n)))
		}
		return fields
	})

	wlg := logs.Logger("wire")
	shipStart := time.Now()
	rep, err := wire.Ship(wire.SensorConfig{
		Addr:         *collector,
		Sensor:       uint32(*sensorID),
		Token:        *token,
		Feed:         feed,
		BatchRecords: *batch,
		Heartbeat:    *heartbeat,
		Linger:       *linger,
		Metrics:      reg,
		Trace:        tr,
		Logf: func(format string, args ...any) {
			wlg.Info(fmt.Sprintf(format, args...))
		},
	})
	stopProgress()
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(shipStart)
	slg.Info("shipment finished", "records", rep.Records, "batches", rep.Batches,
		"bytes", rep.Bytes, "elapsed", elapsed.Round(time.Millisecond),
		"rate", fmt.Sprintf("%.0f/s", float64(rep.Records)/elapsed.Seconds()),
		"dials", rep.Dials, "resumes", rep.Resumes, "acked", rep.Acked)
}
