// Command booteringest drives the streaming side of the reproduction: it
// replays a reflected-UDP packet stream — synthetic, generated from the
// booter-market simulator so supply shocks and churn shape the volume, or
// pre-recorded in an on-disk spool — through the sharded ingestion
// pipeline, then reports throughput, the weekly attack series, and
// whatever extra sinks were attached.
//
// Usage:
//
//	booteringest [-seed N] [-shards N] [-weeks N] [-attacks N] [-wire]
//	             [-record DIR [-compress CODEC] | -replay DIR | -spool-info DIR]
//	             [-from T] [-to T] [-replay-workers N] [-unordered]
//	             [-sinks topk,ndjson] [-topk K] [-ndjson FILE]
//	             [-shed POLICY] [-queue N] [-pprof ADDR] [-progress DUR]
//
// -record DIR generates the synthetic stream, spools it to DIR as
// wire-format datagrams and exits; -compress lz4 stores the spool's
// blocks compressed. -replay DIR streams a previously recorded spool
// from disk through the pipeline instead of generating; -from/-to bound
// the replay to a time window (whole segments outside it are skipped via
// the spool index) and -replay-workers decodes segments with N
// concurrent readers. By default delivery order is preserved; -unordered
// instead hands each decoded segment straight to an order-tolerant
// pipeline as its reader finishes it, with the cross-reader
// low-watermark driving flow expiry — the multi-core replay mode.
// -spool-info DIR prints a spool's MANIFEST/segment index (records, time
// range, codec, bytes/packet, torn segments) without replaying it.
// -sinks attaches extra consumers (a country/protocol top-K ranking, an
// NDJSON flow stream) next to the built-in weekly panel. -shed picks the
// overload policy for full shard queues: block (lossless backpressure,
// default), drop-newest or drop-oldest, with dropped packets accounted
// per sensor. -wire replays wire-format datagrams through the protocol
// decode path instead of pre-decoded packets.
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
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/scenario"
	"booters/internal/spool"
)

const usageText = `booteringest replays a reflected-UDP packet stream through the sharded
streaming ingestion pipeline and reports throughput, the weekly attack
series and any attached sinks. The stream is either generated from the
booter-market simulator (default), recorded once to an on-disk spool
(-record DIR, optionally compressed with -compress lz4), or replayed
from such a spool at disk speed (-replay DIR), whole or bounded to a
time window (-from/-to, pruning segments via the spool index) with
-replay-workers concurrent segment readers — in recorded order by
default, or with -unordered delivering whole segments as readers finish
them into an order-tolerant pipeline (true multi-core replay).
-spool-info DIR prints a spool's segment index without replaying.

Usage:

  booteringest [-seed N] [-shards N] [-weeks N] [-attacks N] [-wire]
               [-record DIR [-compress CODEC] | -replay DIR | -spool-info DIR]
               [-from T] [-to T] [-replay-workers N] [-unordered]
               [-sinks topk,ndjson] [-topk K] [-ndjson FILE]
               [-shed POLICY] [-queue N] [-pprof ADDR] [-progress DUR]

Times for -from/-to parse as RFC 3339 ("2018-10-01T00:00:00Z") or as a
bare UTC date ("2018-10-01").

Flags:

`

func main() {
	log.SetFlags(0)
	log.SetPrefix("booteringest: ")
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), usageText)
		flag.PrintDefaults()
	}
	seed := flag.Int64("seed", 20191021, "stream generator seed")
	shards := flag.Int("shards", 0, "pipeline shards (0 = GOMAXPROCS)")
	weeks := flag.Int("weeks", 12, "stream length in weeks")
	attacks := flag.Float64("attacks", 1000, "mean attack flows per week")
	wire := flag.Bool("wire", false, "replay wire-format datagrams (exercise protocol decode)")
	recordDir := flag.String("record", "", "spool the generated stream to this directory and exit")
	compress := flag.String("compress", "none", "spool block codec for -record: none or lz4")
	replayDir := flag.String("replay", "", "replay a recorded spool from this directory (implies -wire)")
	spoolInfo := flag.String("spool-info", "", "print a spool directory's segment index and exit (no replay)")
	fromFlag := flag.String("from", "", "replay only datagrams at or after this time")
	toFlag := flag.String("to", "", "replay only datagrams before this time")
	replayWorkers := flag.Int("replay-workers", 1, "concurrent spool segment readers for -replay")
	unordered := flag.Bool("unordered", false, "deliver segments as readers finish them through an order-tolerant pipeline (for -replay)")
	scenarioFlag := flag.String("scenario", "", "replay a scenario workload: catalog name, config file, or list")
	sinksFlag := flag.String("sinks", "", "extra sinks, comma-separated: topk, ndjson")
	topKFlag := flag.Int("topk", 5, "rows kept by the topk sink")
	ndjsonPath := flag.String("ndjson", "flows.ndjson", "output file for the ndjson sink")
	shedFlag := flag.String("shed", "block", "overload policy: block, drop-newest or drop-oldest")
	queue := flag.Int("queue", 0, "per-shard queue depth in batches (0 = default)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof profiles on this address (empty = off)")
	progressEvery := flag.Duration("progress", 0, "emit a structured progress line to stderr this often (0 = off)")
	flag.Parse()

	if *pprofAddr != "" {
		_, bound, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			log.Fatalf("-pprof: %v", err)
		}
		fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof/\n", bound)
	}

	logs, err := obs.NewLog(os.Stderr, "")
	if err != nil {
		log.Fatal(err)
	}

	if *scenarioFlag == "list" {
		for _, name := range scenario.Names() {
			fmt.Printf("%-20s %s\n", name, scenario.Describe(name))
		}
		return
	}

	modes := 0
	for _, dir := range []string{*recordDir, *replayDir, *spoolInfo} {
		if dir != "" {
			modes++
		}
	}
	if modes > 1 {
		log.Fatal("-record, -replay and -spool-info are mutually exclusive")
	}
	// Reject flag combinations that would otherwise be silently ignored:
	// running the wrong workload is worse than an error.
	if *replayDir == "" {
		if *fromFlag != "" || *toFlag != "" {
			log.Fatal("-from/-to only apply to -replay (the generated stream is not windowed)")
		}
		if *replayWorkers != 1 {
			log.Fatal("-replay-workers only applies to -replay")
		}
		if *unordered && *scenarioFlag == "" {
			log.Fatal("-unordered only applies to -replay (scenarios pick it themselves when their stream is reordered)")
		}
	}
	if *scenarioFlag != "" {
		if *replayDir != "" || *spoolInfo != "" {
			log.Fatal("-scenario generates its own stream; it excludes -replay and -spool-info (record it with -record, then replay the spool)")
		}
		if *seed != 20191021 || *weeks != 12 || *attacks != 1000 {
			log.Fatal("-seed/-weeks/-attacks only apply to the market-driven stream (the scenario config fixes the workload)")
		}
	}
	if *recordDir == "" && *compress != "none" {
		log.Fatal("-compress only applies to -record")
	}
	shed, err := ingest.ParseShedPolicy(*shedFlag)
	if err != nil {
		log.Fatal(err)
	}
	from, err := parseTimeFlag(*fromFlag)
	if err != nil {
		log.Fatalf("-from: %v", err)
	}
	to, err := parseTimeFlag(*toFlag)
	if err != nil {
		log.Fatalf("-to: %v", err)
	}

	start := time.Date(2018, time.July, 2, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 0, 7**weeks-1)

	// Scenario mode: the config fixes the workload, span and ordering
	// discipline; the run's manifest is verified after the pipeline
	// closes.
	var run *scenario.Run
	if *scenarioFlag != "" {
		cfg, err := scenario.Load(*scenarioFlag)
		if err != nil {
			log.Fatal(err)
		}
		if run, err = scenario.Generate(cfg); err != nil {
			log.Fatal(err)
		}
		start, end = run.Config.Start, run.Config.End()
		if run.RequiresUnordered() {
			*unordered = true
		}
		m := run.Manifest
		fmt.Printf("scenario %s: %d packets (%d attacks, %d scans) over %d weeks\n",
			m.Name, len(run.Stream()), m.Attacks, m.Scans, m.Weeks)
	}

	// Info mode: print the spool's index without touching its blocks.
	if *spoolInfo != "" {
		printSpoolInfo(*spoolInfo)
		return
	}

	// Record mode: generate once, spool to disk, report, done.
	if *recordDir != "" {
		codec, err := spool.CodecByName(*compress)
		if err != nil {
			log.Fatal(err)
		}
		var packets []honeypot.Packet
		if run != nil {
			packets = run.Stream()
		} else {
			packets = generate(*seed, start, *weeks, *attacks)
		}
		recordStart := time.Now()
		w, err := spool.Create(*recordDir, spool.Options{Codec: codec, Metrics: obs.Default()})
		if err != nil {
			log.Fatal(err)
		}
		var recorded atomic.Uint64
		stopProgress := logs.StartProgress(*progressEvery, func() []obs.Field {
			return []obs.Field{obs.F("datagrams", recorded.Load())}
		})
		for _, d := range ingest.Datagrams(packets) {
			if err := w.Append(d); err != nil {
				log.Fatal(err)
			}
			recorded.Add(1)
		}
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
		stopProgress()
		elapsed := time.Since(recordStart)
		fmt.Printf("recorded %d datagrams to %s in %v (%.0f datagrams/sec, codec %s)\n",
			w.Count(), *recordDir, elapsed.Round(time.Millisecond),
			float64(w.Count())/elapsed.Seconds(), codec.Name())
		if idx, err := spool.LoadIndex(*recordDir); err == nil && w.Count() > 0 {
			var raw, stored uint64
			for _, s := range idx.Segments {
				raw += s.RawBytes
				stored += s.StoredBytes
			}
			// bytes/packet is numerically MB per million packets.
			fmt.Printf("on disk: %.1f bytes/packet stored (%.1f raw) = %.1f MB per million packets\n",
				float64(stored)/float64(w.Count()), float64(raw)/float64(w.Count()),
				float64(stored)/float64(w.Count()))
		}
		if run != nil {
			// scenario.json sits next to the spool's own MANIFEST so a
			// later replay can re-verify the recorded ground truth.
			if err := run.Manifest.WriteFile(filepath.Join(*recordDir, "scenario.json")); err != nil {
				log.Fatal(err)
			}
			if run.RequiresUnordered() {
				fmt.Println("replay with: booteringest -replay", *recordDir, "-unordered  (the recorded stream is reordered)")
				return
			}
		}
		fmt.Println("replay with: booteringest -replay", *recordDir)
		return
	}

	// Build the pipeline with any extra sinks.
	var sinks []ingest.Sink
	var topk *ingest.TopKSink
	var ndjson *ingest.NDJSONSink
	var ndjsonFile *os.File
	for _, name := range strings.Split(*sinksFlag, ",") {
		switch strings.TrimSpace(name) {
		case "":
		case "topk":
			topk = ingest.NewTopKSink(*topKFlag)
			sinks = append(sinks, topk)
		case "ndjson":
			f, err := os.Create(*ndjsonPath)
			if err != nil {
				log.Fatal(err)
			}
			ndjsonFile = f
			ndjson = ingest.NewNDJSONSink(f)
			sinks = append(sinks, ndjson)
		default:
			log.Fatalf("unknown sink %q (want topk or ndjson)", name)
		}
	}
	// Mitigation scenarios carry a per-victim cap; attach the what-if
	// sink so the run answers it and the manifest can check the answer.
	var mitigation *scenario.MitigationSink
	if run != nil && run.Config.Mitigation != nil {
		mitigation = scenario.NewMitigationSink(run.Config.Mitigation.PerVictimWeekly)
		sinks = append(sinks, mitigation)
	}

	in, err := ingest.New(ingest.Config{
		Shards:     *shards,
		Start:      start,
		End:        end,
		QueueDepth: *queue,
		Shed:       shed,
		Sinks:      sinks,
		Unordered:  *unordered,
		Metrics:    obs.Default(),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Feed the pipeline: from the spool, or from a generated stream.
	var fedCount atomic.Uint64
	fed := func() uint64 { return fedCount.Load() }
	stopProgress := logs.StartProgress(*progressEvery, func() []obs.Field {
		return pipelineFields(in, fed)
	})
	var spoolStats *spool.ReplayStats
	mode := "pre-decoded"
	replayStart := time.Now()
	if *replayDir != "" {
		mode = "spooled wire-format"
		opts := spool.ReplayOptions{
			From:      from,
			To:        to,
			Workers:   *replayWorkers,
			Unordered: *unordered,
			Metrics:   obs.Default(),
		}
		if *unordered {
			mode = "spooled wire-format, unordered"
			src := in.RegisterSource()
			defer src.Close()
			opts.OnWatermark = src.Advance
		}
		spoolStats, err = spool.ReplayWindow(*replayDir, opts, func(d ingest.Datagram) error {
			fedCount.Add(1)
			in.IngestDatagram(d) // decode drops are counted in Stats
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
	} else {
		var packets []honeypot.Packet
		if run != nil {
			packets = run.Stream()
			if run.RequiresUnordered() {
				mode = "scenario, unordered"
			} else {
				mode = "scenario"
			}
		} else {
			packets = generate(*seed, start, *weeks, *attacks)
		}
		// A reordered scenario stream is a live out-of-order feed: its
		// bounded displacement makes head-minus-lag a valid watermark.
		var src *ingest.Source
		var lag time.Duration
		head := start
		if run != nil && run.RequiresUnordered() {
			src = in.RegisterSource()
			lag = run.WatermarkLag()
		}
		advance := func(i int, t time.Time) {
			if src == nil {
				return
			}
			if t.After(head) {
				head = t
			}
			if i&1023 == 1023 {
				src.Advance(head.Add(-lag))
			}
		}
		replayStart = time.Now()
		if *wire {
			if mode == "pre-decoded" {
				mode = "wire-format"
			}
			for i, d := range ingest.Datagrams(packets) {
				fedCount.Add(1)
				in.IngestDatagram(d)
				advance(i, d.Time)
			}
		} else {
			for i, p := range packets {
				fedCount.Add(1)
				if err := in.Ingest(p); err != nil {
					log.Fatal(err)
				}
				advance(i, p.Time)
			}
		}
		if src != nil {
			src.Close()
		}
	}
	res, err := in.Close()
	if err != nil {
		log.Fatal(err)
	}
	stopProgress()
	elapsed := time.Since(replayStart)
	if ndjsonFile != nil {
		if err := ndjsonFile.Close(); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("\ningested %d of %d %s packets through %d shard(s) in %v (%.0f packets/sec, GOMAXPROCS=%d, shed=%v)\n",
		res.Stats.Packets, fed(), mode, in.Shards(), elapsed.Round(time.Millisecond),
		float64(res.Stats.Packets)/elapsed.Seconds(), runtime.GOMAXPROCS(0), shed)
	if spoolStats != nil {
		fmt.Printf("spool: %d segment(s) read, %d skipped via index, %d record(s) outside window, %d reader(s)\n",
			spoolStats.SegmentsRead, spoolStats.SegmentsSkipped, spoolStats.Filtered, *replayWorkers)
		for _, w := range spoolStats.Warnings {
			fmt.Printf("spool: warning: %s\n", w)
		}
		for _, torn := range spoolStats.Torn {
			fmt.Printf("spool: DATA LOSS: %s: %s (%d complete records recovered)\n",
				torn.Segment, torn.Reason, torn.Records)
		}
	}
	fmt.Printf("flows: %d closed, %d attacks, %d scans, %d late, %d unattributed, %d out-of-span\n",
		res.Stats.Flows, res.Stats.Attacks, res.Stats.Scans, res.Stats.Late, res.Stats.Unattributed, res.Stats.OutOfSpan)

	// Scenario runs are checked, not just timed: the weekly panel must
	// equal the manifest's planned counts, the NB2 fit must recover every
	// injected effect inside its tolerance, and a mitigation cap's
	// admitted/mitigated split must match the recorded ground truth.
	if run != nil {
		m := run.Manifest
		if err := m.VerifyPanel(res.Global); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nscenario %s: panel equals the planned weekly counts (%d weeks)\n", m.Name, m.Weeks)
		assert := false
		for _, e := range m.Effects {
			if e.CoefTolerance > 0 {
				assert = true
			}
		}
		if assert {
			model, err := m.Fit(res.Global)
			if err != nil {
				log.Fatal(err)
			}
			if err := m.VerifyFit(model); err != nil {
				log.Fatal(err)
			}
			for _, e := range m.Effects {
				got, err := model.Effect(e.Name)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("effect %s: fitted %.4f vs injected %.4f (tolerance %.3f) — recovered\n",
					e.Name, got.Coef.Estimate, e.ExpectedCoef, e.CoefTolerance)
			}
		}
		if mitigation != nil {
			mres := mitigation.Result()
			mt := m.Mitigation
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

	// Weekly series: global plus the largest country columns.
	type countryTotal struct {
		code  string
		total float64
	}
	var totals []countryTotal
	for c, s := range res.ByCountry {
		totals = append(totals, countryTotal{c, s.Total()})
	}
	sort.Slice(totals, func(i, j int) bool {
		if totals[i].total != totals[j].total {
			return totals[i].total > totals[j].total
		}
		return totals[i].code < totals[j].code
	})
	top := totals
	if len(top) > 4 {
		top = top[:4]
	}

	fmt.Printf("\n%-12s %8s", "week", "attacks")
	for _, ct := range top {
		fmt.Printf(" %6s", ct.code)
	}
	fmt.Println()
	for w := 0; w < res.Weeks; w++ {
		fmt.Printf("%-12s %8.0f", res.Global.Week(w), res.Global.Values[w])
		for _, ct := range top {
			fmt.Printf(" %6.0f", res.ByCountry[ct.code].Values[w])
		}
		fmt.Println()
	}

	if topk != nil {
		fmt.Printf("\ntop %d victim countries (attacks): ", *topKFlag)
		for i, row := range topk.TopCountries() {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%s %d", row.Country, row.Attacks)
		}
		fmt.Printf("\ntop %d protocols (attacks):        ", *topKFlag)
		for i, row := range topk.TopProtocols() {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%v %d", row.Proto, row.Attacks)
		}
		fmt.Println()
	}
	if ndjson != nil {
		fmt.Printf("\nstreamed %d flow lines to %s\n", ndjson.Lines(), *ndjsonPath)
	}
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
// pipeline: the fed count first (it drives the derived rate), then the
// late-packet count and whatever scrape-time state the registry carries —
// total queued batches, watermark lag, shed packets once any were shed.
func pipelineFields(in *ingest.Ingestor, fed func() uint64) []obs.Field {
	fields := []obs.Field{obs.F("packets", fed()), obs.F("late", in.Late())}
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

// generate builds the synthetic market-driven packet stream.
func generate(seed int64, start time.Time, weeks int, attacks float64) []honeypot.Packet {
	genStart := time.Now()
	packets, err := ingest.SyntheticStream(ingest.StreamConfig{
		Seed:           seed,
		Start:          start,
		Weeks:          weeks,
		AttacksPerWeek: attacks,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d packets over %d weeks in %v\n", len(packets), weeks, time.Since(genStart).Round(time.Millisecond))
	return packets
}
