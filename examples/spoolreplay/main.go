// Spool replay: records a market scenario's capture to a compressed
// on-disk spool once, then replays it twice through the streaming
// pipeline — the whole capture, and a two-week intervention window
// around a takedown — using the spool's per-segment index to skip
// everything outside the window and parallel segment readers to decode
// it.
//
// This is the paper's before/after-intervention workflow at capture
// scale: the expensive stream is generated (or captured) exactly once,
// and every model window after that replays straight off disk.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"booters"
	"booters/internal/scenario"
)

func main() {
	log.SetFlags(0)

	start := time.Date(2018, time.July, 2, 0, 0, 0, 0, time.UTC)
	const weeks = 8

	// Generate the capture once: a market scenario, whose reflected-UDP
	// stream the booter-market simulator shapes.
	run, err := scenario.Generate(scenario.Config{
		Name:            "market",
		Seed:            20191021,
		Start:           start,
		Weeks:           weeks,
		BaselineAttacks: 400,
		Market:          &scenario.MarketDynamics{},
	})
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "spoolreplay")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	spoolDir := dir + "/capture"

	// Record it compressed. Small segments keep the example's index
	// interesting; production captures use the 64 MiB default.
	n, err := booters.RecordSpoolWith(spoolDir, run.Packets, booters.SpoolRecordOptions{
		Codec:        "lz4",
		SegmentBytes: 256 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d datagrams (%d weeks) to a compressed spool\n", n, weeks)

	// Replay 1: the whole capture, four segment readers.
	whole, err := booters.NewIngestor(0)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := booters.ReplaySpoolWindow(whole, spoolDir, booters.SpoolReplayOptions{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	res, err := whole.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full replay:     %d datagrams, %d segments read, %d attacks\n",
		rep.Datagrams, rep.SegmentsRead, res.Stats.Attacks)

	// Replay 2: only weeks 4-5, as if re-fitting a model window around
	// an intervention in week 5. Segments wholly outside the window are
	// never opened.
	from := start.AddDate(0, 0, 21)
	to := start.AddDate(0, 0, 35)
	win, err := booters.NewIngestor(0)
	if err != nil {
		log.Fatal(err)
	}
	rep, err = booters.ReplaySpoolWindow(win, spoolDir, booters.SpoolReplayOptions{
		From:    from,
		To:      to,
		Workers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	wres, err := win.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("windowed replay: %d datagrams, %d segments skipped via index, %d attacks\n",
		rep.Datagrams, rep.SegmentsSkipped, wres.Stats.Attacks)
	for _, w := range rep.Warnings {
		fmt.Println("warning:", w)
	}
	for _, l := range rep.DataLoss {
		fmt.Println("DATA LOSS:", l)
	}

	// The windowed panel is the full panel restricted to the window —
	// print the stream's weeks side by side. The facade panel spans the
	// paper's full study period, so index from the stream's first week.
	first := res.Global.IndexOfTime(start)
	if first < 0 {
		log.Fatal("stream start outside the panel span")
	}
	fmt.Println("\nweek         full  windowed")
	for wk := 0; wk < weeks; wk++ {
		fmt.Printf("%s  %5.0f  %8.0f\n",
			res.Global.Week(first+wk), res.Global.Values[first+wk], wres.Global.Values[first+wk])
	}
}
