// Command booteringest drives the streaming side of the reproduction: it
// replays a reflected-UDP packet stream — a generated scenario workload
// (by default the market scenario of -seed/-weeks/-attacks, whose volume
// the booter-market simulator shapes with supply shocks and churn), or
// pre-recorded in an on-disk spool — through the sharded ingestion
// pipeline, then reports throughput, the weekly attack series verified
// against the scenario manifest, and the panel's top victim countries and
// protocols.
//
// Usage:
//
//	booteringest [-seed N] [-shards N] [-weeks N] [-attacks N] [-wire]
//	             [-record DIR [-compress CODEC] | -replay DIR | -spool-info DIR]
//	             [-from T] [-to T] [-replay-workers N] [-ndjson FILE]
//	             [-shed POLICY] [-queue N] [-pprof ADDR] [-progress DUR]
//
// -record DIR generates the stream (the market scenario or the -scenario
// run), spools it to DIR as wire-format datagrams next to its
// manifest.json and exits; -compress lz4 stores the spool's blocks
// compressed. -replay DIR streams a previously recorded spool from disk
// through the pipeline instead of generating, over the span its index
// attests, and verifies the panel and fit against a recorded
// manifest.json; -from/-to bound the replay to a time window (whole
// segments outside it are skipped via the spool index) and
// -replay-workers decodes segments with N concurrent readers, delivered
// in recorded order. A scenario whose stream is reordered, or a spool
// whose manifest.json records such a scenario, runs through the
// order-tolerant pipeline, with the spool trailers' low-watermark driving
// flow expiry during a replay. -spool-info DIR prints a spool's
// MANIFEST/segment index (records, time range, codec, bytes/packet, torn
// segments) without replaying it. -ndjson FILE streams every closed flow
// to FILE as newline-delimited JSON next to the weekly panel. -shed picks
// the overload policy for full shard queues: block (lossless
// backpressure, default), drop-newest or drop-oldest, with dropped
// packets accounted per sensor. -wire replays wire-format datagrams
// through the protocol decode path instead of pre-decoded packets.
//
// The run is fully instrumented through internal/obs: -progress DUR emits
// a one-line structured status report (packets, late, queue depth,
// watermark lag, derived rate) to stderr every DUR, and -pprof ADDR
// serves the net/http/pprof profiles for on-demand CPU/heap capture.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"time"

	"booters"
	"booters/internal/cli"
	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/scenario"
	"booters/internal/spool"
	"booters/internal/timeseries"
)

const usageText = `booteringest replays a reflected-UDP packet stream through the sharded
streaming ingestion pipeline and reports throughput, the weekly attack
series and the top victim countries and protocols. The stream is a
generated scenario — by default the market scenario of
-seed/-weeks/-attacks, or a -scenario workload — whose panel is verified against the scenario manifest,
recorded once to an on-disk spool (-record DIR, optionally compressed
with -compress lz4), or replayed from such a spool at disk speed
(-replay DIR, panel span sized from the spool index, verified against
the manifest.json the recording leaves next to the segments), whole or
bounded to a time window (-from/-to, pruning segments via the spool
index) with -replay-workers concurrent segment readers, delivered in
recorded order. Reordered scenario streams and recordings run through
the order-tolerant pipeline. -ndjson FILE also streams every closed flow
to FILE as newline-delimited JSON.
-spool-info DIR prints a spool's segment index without replaying.

Usage:

  booteringest [-seed N] [-shards N] [-weeks N] [-attacks N] [-wire]
               [-record DIR [-compress CODEC] | -replay DIR | -spool-info DIR]
               [-from T] [-to T] [-replay-workers N] [-ndjson FILE]
               [-shed POLICY] [-queue N] [-pprof ADDR] [-progress DUR]

Times for -from/-to parse as RFC 3339 ("2018-10-01T00:00:00Z") or as a
bare UTC date ("2018-10-01").

Flags:

`

func main() {
	cli.Init("booteringest", usageText)
	fs := flag.CommandLine
	wl := cli.WorkloadFlags(fs, "replay a scenario workload: catalog name, config file, or list",
		time.Date(2018, time.July, 2, 0, 0, 0, 0, time.UTC), 12, 1000)
	shards := cli.Shards(fs)
	wire := flag.Bool("wire", false, "replay wire-format datagrams (exercise protocol decode)")
	rec := cli.RecordFlags(fs, "spool the generated stream to this directory and exit")
	rep := cli.ReplayFlags(fs, "replay a recorded spool from this directory (implies -wire)")
	spoolInfo := flag.String("spool-info", "", "print a spool directory's segment index and exit (no replay)")
	fromFlag := flag.String("from", "", "replay only datagrams at or after this time")
	toFlag := flag.String("to", "", "replay only datagrams before this time")
	ndjsonPath := flag.String("ndjson", "", "stream every closed flow to this file as NDJSON (empty: off)")
	shedFlag := flag.String("shed", "block", "overload policy: block, drop-newest or drop-oldest")
	queue := flag.Int("queue", 0, "per-shard queue depth in batches (0 = default)")
	prof := cli.ProfileFlags(fs)
	flag.Parse()

	if wl.List(os.Stdout) {
		return
	}
	pipeline := rec.Dir == "" && *spoolInfo == ""
	cli.Check(
		cli.Exclusive(fs, "record", "replay", "spool-info"),
		cli.Exclusive(fs, "scenario", "replay", "spool-info"),
		cli.Only(fs, wl.Spec == "" && rep.Dir == "" && *spoolInfo == "",
			"the market-driven stream (a scenario or a spool fixes the workload)", "seed", "weeks", "attacks"),
		cli.Only(fs, rep.Dir != "", "-replay (the generated stream is not windowed)", "from", "to", "replay-workers"),
		cli.Only(fs, pipeline, "a pipeline run (not -record or -spool-info)",
			"shards", "wire", "ndjson", "shed", "queue"),
		cli.Only(fs, rec.Dir != "", "-record", "compress"),
	)
	logs, err := obs.NewLog(os.Stderr, "")
	cli.Check(err)
	lg := logs.Logger("ingest")
	cli.Check(prof.ServePprof(lg))
	shed, err := ingest.ParseShedPolicy(*shedFlag)
	cli.Check(err)
	from, err := parseTimeFlag(*fromFlag)
	if err != nil {
		log.Fatalf("-from: %v", err)
	}
	to, err := parseTimeFlag(*toFlag)
	if err != nil {
		log.Fatalf("-to: %v", err)
	}

	// Info mode: print the spool's index without touching its blocks.
	if *spoolInfo != "" {
		printSpoolInfo(*spoolInfo)
		return
	}

	// Pick the workload and its panel span. A generated workload (the
	// -scenario run, or the market scenario of -seed/-weeks/-attacks)
	// fixes the span and ordering discipline; a replayed spool's index
	// fixes the span. Either way the scenario manifest — generated, or
	// recorded next to the spool — is the ground truth the run is
	// verified against after the pipeline closes.
	var (
		start, end time.Time
		packets    []honeypot.Packet
		m          *scenario.Manifest
		lag        time.Duration
		unordered  bool
	)
	if rep.Dir != "" {
		start, end, err = rep.Span()
		cli.Check(err)
		m, err = scenario.ReadSpoolManifest(rep.Dir)
		cli.Check(err)
		// A reordered recording needs the order-tolerant path, exactly
		// as the scenario run that recorded it did.
		unordered = m != nil && m.RequiresUnordered()
		if m != nil && (!from.IsZero() || !to.IsZero()) {
			fmt.Printf("spool manifest %s: verification skipped (a -from/-to window covers part of the scenario)\n", m.Name)
			m = nil
		}
	} else {
		run, err := wl.Generate(lg)
		cli.Check(err)
		start, end, packets, m, lag = run.Config.Start, run.Config.End(), run.Stream(), run.Manifest, run.WatermarkLag()
		unordered = run.RequiresUnordered()
	}

	// Record mode: spool to disk, report, done.
	if rec.Dir != "" {
		cli.Check(rec.Write(logs, prof.Progress, packets, m))
		fmt.Println("replay with: booteringest -replay", rec.Dir)
		return
	}

	// Build the pipeline with the NDJSON sink when asked for.
	var sinks []ingest.Sink
	var ndjson *ingest.NDJSONSink
	var ndjsonFile *os.File
	if *ndjsonPath != "" {
		f, err := os.Create(*ndjsonPath)
		cli.Check(err)
		ndjsonFile, ndjson = f, ingest.NewNDJSONSink(f)
		sinks = append(sinks, ndjson)
	}
	// Mitigation scenarios carry a per-victim cap; attach the what-if
	// sink so the run answers it and the manifest can check the answer.
	var mitigation *ingest.MitigationSink
	if m != nil && m.Mitigation != nil {
		mitigation = ingest.NewMitigationSink(m.Mitigation.PerVictimWeekly)
		sinks = append(sinks, mitigation)
	}

	in, err := ingest.New(ingest.Config{
		Shards:     *shards,
		Start:      start,
		End:        end,
		QueueDepth: *queue,
		Shed:       shed,
		Sinks:      sinks,
		Unordered:  unordered,
		Metrics:    obs.Default(),
	})
	cli.Check(err)

	// Feed the pipeline: from the spool, or from the generated stream.
	mode := "pre-decoded"
	switch {
	case rep.Dir != "":
		mode = "spooled wire-format"
	case wl.Spec != "":
		mode = "scenario"
	case *wire:
		mode = "wire-format"
	}
	if unordered {
		mode += ", order-tolerant"
	}
	stopProgress := logs.StartProgress(prof.Progress, func() []obs.Field { return pipelineFields(in) })
	feedStart := time.Now()
	fed := uint64(len(packets))
	var spoolRep *booters.SpoolReplayReport
	if rep.Dir != "" {
		spoolRep, err = booters.ReplaySpoolWindow(in, rep.Dir, booters.SpoolReplayOptions{
			From: from, To: to, Workers: rep.Workers,
		})
		cli.Check(err)
		fed = spoolRep.Datagrams
	} else {
		cli.Check(in.Feed(packets, *wire, lag))
	}
	res, err := in.Close()
	cli.Check(err)
	stopProgress()
	elapsed := time.Since(feedStart)
	if ndjsonFile != nil {
		cli.Check(ndjsonFile.Close())
	}

	fmt.Printf("\ningested %d of %d %s packets through %d shard(s) in %v (%.0f packets/sec, GOMAXPROCS=%d, shed=%v)\n",
		res.Stats.Packets, fed, mode, in.Shards(), elapsed.Round(time.Millisecond),
		float64(res.Stats.Packets)/elapsed.Seconds(), runtime.GOMAXPROCS(0), shed)
	if spoolRep != nil {
		fmt.Printf("spool: %d segment(s) read, %d skipped via index, %d record(s) outside window, %d reader(s)\n",
			spoolRep.SegmentsRead, spoolRep.SegmentsSkipped, spoolRep.Filtered, rep.Workers)
		for _, w := range spoolRep.Warnings {
			fmt.Printf("spool: warning: %s\n", w)
		}
		for _, loss := range spoolRep.DataLoss {
			fmt.Printf("spool: DATA LOSS: %s\n", loss)
		}
	}
	fmt.Printf("flows: %d closed, %d attacks, %d scans, %d late, %d unattributed, %d out-of-span\n",
		res.Stats.Flows, res.Stats.Attacks, res.Stats.Scans, res.Stats.Late, res.Stats.Unattributed, res.Stats.OutOfSpan)

	// Scenario runs are checked, not just timed: the weekly panel must
	// equal the manifest's planned counts, the NB2 fit must recover every
	// injected effect inside its tolerance, and a mitigation cap's
	// admitted/mitigated split must match the recorded ground truth.
	if m != nil {
		fmt.Println()
		cli.Check(cli.Verify(os.Stdout, m, res.Global))
		if mitigation != nil {
			mres, mt := mitigation.Result(), m.Mitigation
			if mres.AttacksAdmitted != mt.ExpectedAdmitted || mres.AttacksMitigated != mt.ExpectedMitigated {
				log.Fatalf("mitigation cap %d: admitted %d / mitigated %d, manifest says %d / %d",
					mt.PerVictimWeekly, mres.AttacksAdmitted, mres.AttacksMitigated,
					mt.ExpectedAdmitted, mt.ExpectedMitigated)
			}
			fmt.Printf("mitigation cap %d/victim/week: %d admitted, %d mitigated — matches the manifest\n",
				mt.PerVictimWeekly, mres.AttacksAdmitted, mres.AttacksMitigated)
		}
	}
	if res.Stats.Shed > 0 {
		fmt.Printf("shed: %d packets dropped (%v policy), by sensor:", res.Stats.Shed, shed)
		sensors := make([]int, 0, len(res.Stats.ShedBySensor))
		for s := range res.Stats.ShedBySensor {
			sensors = append(sensors, s)
		}
		sort.Ints(sensors)
		for _, s := range sensors {
			fmt.Printf(" %d:%d", s, res.Stats.ShedBySensor[s])
		}
		fmt.Println()
	}

	// Weekly series: global plus the four heaviest country columns.
	top := res.TopCountries(4)
	fmt.Printf("\n%-12s %8s", "week", "attacks")
	for _, row := range top {
		fmt.Printf(" %6s", row.Key)
	}
	fmt.Println()
	for w := 0; w < res.Weeks; w++ {
		fmt.Printf("%-12s %8.0f", res.Global.Week(w), res.Global.Values[w])
		for _, row := range top {
			fmt.Printf(" %6.0f", res.Country(row.Key).Values[w])
		}
		fmt.Println()
	}

	// The Table 3 cut over the panel span, as /v1/top serves it.
	fmt.Println()
	printTop(fmt.Sprintf("top %d victim countries (attacks): ", topRows), res.TopCountries(topRows))
	printTop(fmt.Sprintf("top %d protocols (attacks):        ", topRows), res.TopProtocols(topRows))
	if ndjson != nil {
		fmt.Printf("\nstreamed %d flow lines to %s\n", ndjson.Lines(), *ndjsonPath)
	}
}

// topRows is the length of the printed country and protocol rankings.
const topRows = 5

// printTop prints one ranking on one line after label.
func printTop(label string, rows []timeseries.Ranked) {
	fmt.Print(label)
	for i, row := range rows {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s %d", row.Key, row.Attacks)
	}
	fmt.Println()
}

// printSpoolInfo renders a spool directory's index — what the MANIFEST
// and segment trailers attest — without opening any block data: per
// segment the format version, codec, record count, time range and stored
// footprint, then totals and every index degradation (torn trailers,
// corrupt or missing MANIFEST, unindexed segments).
func printSpoolInfo(dir string) {
	idx, err := spool.LoadIndex(dir)
	if err != nil {
		log.Fatal(err)
	}
	if len(idx.Segments) == 0 {
		log.Fatalf("no segments in %s", dir)
	}
	const tf = "2006-01-02T15:04:05Z"
	fmt.Printf("%-14s %3s %-5s %10s %-20s .. %-20s %12s %9s\n",
		"segment", "ver", "codec", "records", "min", "max", "stored", "bytes/pkt")
	var records, raw, stored uint64
	torn := 0
	for _, s := range idx.Segments {
		codec := s.Codec
		if codec == "" {
			codec = "-"
		}
		minT, maxT, bpp := "-", "-", "-"
		if s.Indexed {
			if s.Records > 0 {
				minT, maxT = s.Min.UTC().Format(tf), s.Max.UTC().Format(tf)
				bpp = fmt.Sprintf("%.1f", float64(s.StoredBytes)/float64(s.Records))
			}
		} else {
			torn++
			minT, maxT = "unindexed", "unindexed"
		}
		fmt.Printf("%-14s %3d %-5s %10d %-20s .. %-20s %12d %9s\n",
			s.Name, s.Version, codec, s.Records, minT, maxT, s.StoredBytes, bpp)
		records += s.Records
		raw += s.RawBytes
		stored += s.StoredBytes
	}
	fmt.Printf("\ntotal: %d segment(s), %d record(s), %d stored bytes", len(idx.Segments), records, stored)
	if records > 0 {
		fmt.Printf(" (%.1f bytes/packet stored, %.1f raw)", float64(stored)/float64(records), float64(raw)/float64(records))
	}
	fmt.Println()
	if torn > 0 {
		fmt.Printf("%d segment(s) without a trusted trailer: record counts above exclude them\n", torn)
	}
	for _, w := range idx.Warnings {
		fmt.Printf("warning: %s\n", w)
	}
}

// pipelineFields builds one progress line's fields from the live
// pipeline: the accepted-packet count first (it drives the derived rate),
// then the late-packet count and whatever scrape-time state the registry
// carries — total queued batches, watermark lag, shed packets once any
// were shed.
func pipelineFields(in *ingest.Ingestor) []obs.Field {
	fields := []obs.Field{obs.F("packets", in.Packets()), obs.F("late", in.Late())}
	reg := in.Metrics()
	if reg == nil {
		return fields
	}
	if q, ok := reg.Sum("booters_ingest_queue_depth"); ok {
		fields = append(fields, obs.F("queue", int(q)))
	}
	if lag, ok := reg.Sum("booters_ingest_watermark_lag_seconds"); ok {
		fields = append(fields, obs.F("lag_s", fmt.Sprintf("%.1f", lag)))
	}
	if shed, ok := reg.Sum("booters_ingest_shed_packets_total"); ok && shed > 0 {
		fields = append(fields, obs.F("shed", uint64(shed)))
	}
	return fields
}

// parseTimeFlag parses a -from/-to value: RFC 3339, or a bare UTC date.
// An empty value means "unbounded" and parses to the zero time.
func parseTimeFlag(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return time.Time{}, fmt.Errorf("%q is neither RFC 3339 nor YYYY-MM-DD", s)
	}
	return t, nil
}
