// Command bootersensor is the sensor half of the networked capture
// path: it ships a reflected-UDP record stream — a recorded on-disk
// spool, or a generated scenario workload — to a collector (booterserve
// -listen) over the framed session protocol of docs/WIRE_PROTOCOL.md,
// and exits once the collector has acknowledged the stream's final
// record.
//
// Usage:
//
//	bootersensor -collector HOST:PORT [-token TOK] [-sensor N]
//	             [-spool DIR | -scenario NAME|FILE | -seed N -weeks N -attacks N]
//	             [-batch N] [-heartbeat DUR] [-linger DUR]
//	             [-pprof ADDR] [-progress DUR] [-log SPEC]
//	             [-trace-sample N] [-trace-slow DUR]
//
// -spool DIR ships an existing spool directory (recorded with booterserve
// -record, booteringest -record, or bootersensor itself on an earlier
// run); -scenario NAME|FILE ships a scenario workload from the
// internal/scenario catalog (docs/SCENARIOS.md) so a collector can verify
// intervention-fit recovery against the scenario's ground truth; without
// either, the market scenario described by -seed/-weeks/-attacks is
// generated in memory and shipped. Connection loss redials with
// exponential backoff and resumes exactly from the collector's last
// acknowledged offset, so interrupting and restarting a shipment never
// loses or duplicates a record. -linger turns the sensor into a live tail
// that keeps the session open — heartbeating, shipping whatever appears
// in the spool — until the feed has stayed dry that long.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"booters/internal/cli"
	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/wire"
)

const usageText = `bootersensor ships a reflected-UDP record stream to a collector
(booterserve -listen) over the framed, authenticated, resumable session
protocol: batches carry spool-format records, acks are cumulative record
offsets, and a reconnect resumes exactly where the collector's last ack
left off — no loss, no duplication. The stream is an existing spool
directory (-spool), a scenario workload with recorded ground truth
(-scenario, see docs/SCENARIOS.md; list prints the catalog), or the
market scenario generated in memory (-seed/-weeks/-attacks).

Usage:

  bootersensor -collector HOST:PORT [-token TOK] [-sensor N]
               [-spool DIR | -scenario NAME|FILE | -seed N -weeks N -attacks N]
               [-batch N] [-heartbeat DUR] [-linger DUR]
               [-pprof ADDR] [-progress DUR] [-log SPEC]
               [-trace-sample N] [-trace-slow DUR]

Flags:

`

func main() {
	cli.Init("bootersensor", usageText)
	fs := flag.CommandLine
	collector := cli.WireFlags(fs, "collector", "collector address (required; booterserve -listen)", "token")
	sensorID := flag.Uint("sensor", 1, "sensor ID; the collector keys resume offsets by it")
	spoolDir := flag.String("spool", "", "ship this recorded spool directory instead of a generated stream")
	wl := cli.WorkloadFlags(fs, "ship a scenario workload: catalog name, config file, or list",
		time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC), 4, 500)
	batch := flag.Int("batch", wire.DefaultBatchRecords, "records per batch frame")
	heartbeat := flag.Duration("heartbeat", wire.DefaultHeartbeat, "idle interval between heartbeats (keep under the collector's dead-session deadline)")
	linger := flag.Duration("linger", 0, "live-tail: keep the session open until the feed stays dry this long (0 = finish at end of feed)")
	prof := cli.ProfileFlags(fs)
	logFlags := cli.LogFlags(fs)
	flag.Parse()

	if wl.List(os.Stdout) {
		return
	}
	if collector.Addr == "" {
		flag.Usage()
		os.Exit(2)
	}
	cli.Check(
		cli.Exclusive(fs, "spool", "scenario"),
		cli.Only(fs, *spoolDir == "" && wl.Spec == "",
			"generated streams (the spool or scenario fixes the workload)", "seed", "weeks", "attacks"),
	)
	logs, tr, err := logFlags.Open(os.Stderr)
	cli.Check(err)
	slg := logs.Logger("sensor")
	cli.Check(prof.ServePprof(slg))

	var feed wire.Feed
	if *spoolDir != "" {
		sf := wire.NewSpoolFeed(*spoolDir)
		defer sf.Close()
		feed = sf
	} else {
		run, err := wl.Generate(slg)
		cli.Check(err)
		if wl.Spec != "" {
			slg.Info("collector panel span", "start", run.Config.Start.Format("2006-01-02"),
				"weeks", run.Manifest.Weeks, "hint", "booterserve -listen ... -scenario "+wl.Spec)
		}
		feed = wire.NewSliceFeed(ingest.Datagrams(run.Stream()))
	}

	reg := obs.Default()
	stopProgress := logs.StartProgress(prof.Progress, func() []obs.Field {
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

	shipStart := time.Now()
	rep, err := wire.Ship(wire.SensorConfig{
		Addr:         collector.Addr,
		Sensor:       uint32(*sensorID),
		Token:        collector.Token,
		Feed:         feed,
		BatchRecords: *batch,
		Heartbeat:    *heartbeat,
		Linger:       *linger,
		Metrics:      reg,
		Trace:        tr,
		Logf:         cli.Logf(logs.Logger("wire")),
	})
	stopProgress()
	cli.Check(err)
	elapsed := time.Since(shipStart)
	slg.Info("shipment finished", "records", rep.Records, "batches", rep.Batches,
		"bytes", rep.Bytes, "elapsed", elapsed.Round(time.Millisecond),
		"rate", fmt.Sprintf("%.0f/s", float64(rep.Records)/elapsed.Seconds()),
		"dials", rep.Dials, "resumes", rep.Resumes, "acked", rep.Acked)
}
