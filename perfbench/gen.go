package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/protocols"
	"booters/internal/scenario"
	"booters/internal/spool"
)

// Scenario shapes. Each workload scales a catalog scenario; the seed
// given on the command line replaces the catalog seed.
const (
	replayBaseline  = 600 // takedown-sharp x4: about 1.08M packets
	replaySegBytes  = 1 << 20
	fleetWeeks      = 128
	fleetBaseline   = 350 // about 850k records after 25% duplication
	fleetTakedownAt = 30
	queryWeeks      = 400
	querySplitWeek  = 150 // set-up ingests weeks before this one; the writer feeds the rest
	fitMinWeeks     = 56  // scenario.MinFitWeeks: shortest window a fit accepts
)

// plan is the pre-generated request plan a run reads from plan.json.
type plan struct {
	// Windows are analyst /v1/model windows as [from, to) scenario week
	// indexes, each containing the injected takedown, in seeded order.
	Windows [][2]int `json:"windows"`
	// Reads are dashboard request paths, cycled in order.
	Reads []string `json:"reads"`
	// SplitWeek is query's set-up/writer boundary (scenario week index).
	SplitWeek int `json:"split_week,omitempty"`
	// Records is the length of the recorded delivery stream.
	Records int `json:"records"`
}

// genReplay records a scaled takedown-sharp run as an lz4 spool.
func genReplay(dir string, seed int64) error {
	cfg, _ := scenario.Catalog("takedown-sharp")
	cfg.Seed = seed
	cfg.BaselineAttacks = replayBaseline
	cfg.SelfReport = nil
	run, err := scenario.Generate(cfg)
	if err != nil {
		return err
	}
	return record(dir, run, run.Packets, "lz4", replaySegBytes, windows(seed, cfg.Weeks, cfg.Takedowns[0].Week, cfg.Weeks))
}

// genFleet builds a hostile-flood-shaped run (25% duplicates, ±45 s
// per-sensor clock skew, no reordering) long enough to fit, with a
// takedown so the post-run model check has an effect to recover. The
// stream is recorded in event-time order; the run splits it across its
// two sessions by sensor.
func genFleet(dir string, seed int64) error {
	cfg, _ := scenario.Catalog("hostile-flood")
	cfg.Seed = seed
	cfg.Weeks = fleetWeeks
	cfg.BaselineAttacks = fleetBaseline
	cfg.Hostile = &scenario.HostileSpec{DuplicatePct: 25, SkewSeconds: 45}
	cfg.Takedowns = []scenario.Takedown{{Name: "Takedown", Week: fleetTakedownAt, Weeks: 8, DropPct: 55}}
	run, err := scenario.Generate(cfg)
	if err != nil {
		return err
	}
	stream := run.Hostile
	slices.SortStableFunc(stream, func(a, b honeypot.Packet) int { return a.Time.Compare(b.Time) })
	return record(dir, run, stream, "none", 0, windows(seed, fitMinWeeks+8, fleetTakedownAt, cfg.Weeks))
}

// genQuery records a 400-week takedown-sharp-shaped run; set-up ingests
// the first querySplitWeek weeks and a slow writer feeds the rest, whose
// weeks are the run's freshness samples. The analyst's windows may reach
// the set-up frontier: about 3000 distinct ones, more than a 30 s phase
// fits.
func genQuery(dir string, seed int64) error {
	cfg, _ := scenario.Catalog("takedown-sharp")
	cfg.Seed = seed
	cfg.Weeks = queryWeeks
	cfg.SelfReport = nil
	run, err := scenario.Generate(cfg)
	if err != nil {
		return err
	}
	ws := windows(seed, querySplitWeek, cfg.Takedowns[0].Week, querySplitWeek-1)
	ws.SplitWeek = querySplitWeek
	return record(dir, run, run.Packets, "none", 0, ws)
}

// windows builds the seeded request plan: every [from, to) window of
// fitMinWeeks..maxLen weeks that contains the takedown week and ends at
// or before limit, shuffled, plus a shuffled dashboard read cycle.
func windows(seed int64, maxLen, takedown, limit int) plan {
	rng := rand.New(rand.NewSource(seed))
	var p plan
	for from := 0; from <= takedown; from++ {
		for n := fitMinWeeks; n <= maxLen && from+n <= limit; n++ {
			p.Windows = append(p.Windows, [2]int{from, from + n})
		}
	}
	rng.Shuffle(len(p.Windows), func(i, j int) { p.Windows[i], p.Windows[j] = p.Windows[j], p.Windows[i] })

	countries := geo.Countries()
	protos := protocols.All()
	for i := 0; i < 64; i++ {
		c := countries[rng.Intn(len(countries))]
		pr := protos[rng.Intn(len(protos))].String()
		switch i % 4 {
		case 0:
			p.Reads = append(p.Reads, "/v1/panel")
		case 1:
			switch rng.Intn(3) {
			case 0:
				p.Reads = append(p.Reads, "/v1/series?country="+c)
			case 1:
				p.Reads = append(p.Reads, "/v1/series?proto="+pr)
			default:
				p.Reads = append(p.Reads, "/v1/series?country="+c+"&proto="+pr)
			}
		case 2:
			by := []string{"country", "protocol"}[rng.Intn(2)]
			p.Reads = append(p.Reads, fmt.Sprintf("/v1/top?by=%s&k=%d", by, 3+rng.Intn(8)))
		default:
			p.Reads = append(p.Reads, "/v1/status")
		}
	}
	return p
}

// record writes the manifest, the plan and the delivery stream as a
// spool under dir.
func record(dir string, run *scenario.Run, stream []honeypot.Packet, codecName string, segBytes int64, p plan) error {
	if err := run.Manifest.WriteFile(filepath.Join(dir, "manifest.json")); err != nil {
		return err
	}
	codec, err := spool.CodecByName(codecName)
	if err != nil {
		return err
	}
	w, err := spool.Create(filepath.Join(dir, "spool"), spool.Options{Codec: codec, SegmentBytes: segBytes})
	if err != nil {
		return err
	}
	for _, d := range ingest.Datagrams(stream) {
		if err := w.Append(d); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	p.Records = len(stream)
	b, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "plan.json"), b, 0o644)
}
