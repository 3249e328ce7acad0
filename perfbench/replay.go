package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/spool"
)

// replayReads is the dashboard burst after each replay.
const replayReads = 1024

// runReplay is the researcher's capture-to-panel path: the lz4 spool is
// replayed through a rolling 2-shard ordered pipeline by 2 segment
// readers with an idle HTTP server attached, as many times as the
// measured phase allows. After each replay the final panel is checked
// against the manifest, the model over the manifest window is fitted
// through HTTP and checked with Manifest.VerifyFit, and a short
// dashboard burst reads the idle server.
func runReplay(e *env) error {
	var p plan
	if err := e.readPlan(&p); err != nil {
		return err
	}
	var reg *obs.Registry
	if e.tr != nil {
		reg = obs.NewRegistry()
	}
	// One entry per iteration; iterations the hypervisor stole from are
	// set aside by the gate.
	var setups, pps, cpu, heap, models []float64
	var fresh [][]float64
	var reads []readStats
	setupGate, iterGate := e.gate(), e.gate()
	rt0 := readRuntime()
	var pkts uint64
	deadline := time.Now().Add(e.dur)
	for iter := 0; iter < 3 || time.Now().Before(deadline); iter++ {
		runtime.GC()
		t0 := time.Now()
		s, err := newSUT(e, pipeConfig{shards: 2, metrics: reg})
		if err != nil {
			return err
		}
		idx, err := spool.LoadIndex(e.path("spool"))
		if err != nil {
			s.close()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupGate.add(t0.UnixNano(), time.Now().UnixNano())
		if len(idx.Warnings) > 0 {
			e.fail("spool index: %v", idx.Warnings)
		}

		clock := newSealClock(e)
		if err := s.in.OnSnapshot(clock.published); err != nil {
			s.close()
			return err
		}
		hs := startHeapSampler(time.Hour)
		c0, t1 := cpuTime(), time.Now()
		n, stats, err := replaySpool(e, s.in, e.path("spool"), 2, clock)
		if err != nil {
			s.close()
			return err
		}
		res, err := s.in.Close()
		if err != nil {
			s.close()
			return err
		}
		wall, used := time.Since(t1), cpuTime()-c0
		pps = append(pps, float64(n)/wall.Seconds())
		cpu = append(cpu, float64(used)/float64(n))
		fresh = append(fresh, clock.lags(e))
		pkts += n
		e.layerCount("ingest.snapshots", float64(clock.seen.Load()))

		// Output checks, then the read side.
		e.ops(int64(n), int64(n-res.Stats.Packets))
		checkStats(e, res.Stats, uint64(p.Records))
		if len(stats.Torn) > 0 || n != uint64(p.Records) {
			e.fail("replay delivered %d of %d records, torn %v", n, p.Records, stats.Torn)
		}
		c := newClient(s.srv.Addr())
		e.check("panel", verifyPanel(e, c, res))
		c.close()
		rs, lat := readPhaseModel(e, s, p.Reads, iter*7)
		reads = append(reads, rs)
		models = append(models, lat)
		heap = append(heap, hs.peakMB())
		iterGate.add(t1.UnixNano(), time.Now().UnixNano())
		s.close()
	}
	var allFresh []float64
	var rs readStats
	for _, i := range iterGate.keep() {
		allFresh = append(allFresh, fresh[i]...)
		rs.merge(reads[i])
	}
	e.e2e.set("setup_s", median(setupGate.pick(setups)), "s")
	e.e2e.set("throughput_pps", median(iterGate.pick(pps)), "1/s")
	e.e2e.set("cpu_ns_per_pkt", median(iterGate.pick(cpu)), "ns")
	e.e2e.set("freshness_p50_ms", median(allFresh), "ms")
	e.e2e.set("query_qps", rs.qps(), "1/s")
	e.e2e.set("query_p50_ms", median(rs.lat), "ms")
	e.e2e.set("model_p50_ms", median(iterGate.pick(models)), "ms")
	e.e2e.set("peak_heap_mb", median(iterGate.pick(heap)), "MB")
	e.tails(allFresh, rs.lat, iterGate.pick(models), nil)
	e.runtimeLayer(readRuntime().sub(rt0), pkts)
	e.programCounters(reg)
	return nil
}

// readPhaseModel is replay's post-run read side: the analyst fits the
// manifest window and checks it (a fresh fit: the snapshot is new), then
// the dashboard reads the idle server alone.
func readPhaseModel(e *env, s *sut, reads []string, offset int) (readStats, float64) {
	c := newClient(s.srv.Addr())
	defer c.close()
	d, err := verifyModel(e, s, c)
	var failed int64
	if !e.check("model", err) {
		failed = 1
	}
	// Read a quiet heap: the pass's garbage is collected first.
	runtime.GC()
	t0 := time.Now().UnixNano()
	rs := dashboard(e, c, reads, offset, closed, replayReads)
	e.ops(rs.n+1, rs.failed+failed)
	// Reads per second over the burst's steal-free slots.
	if cs := e.mon.cleanSums(t0, time.Now().UnixNano()); cs.wall > 0 {
		rs.n, rs.failed, rs.elapsed = cs.reads, 0, time.Duration(cs.wall)
	}
	return rs, d
}

// replaySpool streams the spool through the pipeline's datagram path
// with the given number of ordered segment readers, feeding the seal
// clock (when non-nil) the event time of every record handed over. In
// traced passes every 64th IngestDatagram call is timed.
func replaySpool(e *env, in *ingest.Ingestor, dir string, readers int, clock *sealClock) (uint64, *spool.ReplayStats, error) {
	var n uint64
	tr := e.tr
	stats, err := spool.ReplayWindow(dir, spool.ReplayOptions{Workers: readers}, func(d ingest.Datagram) error {
		n++
		if clock != nil {
			clock.observe(d.Time.UnixNano())
		}
		var err error
		if tr != nil && n&63 == 0 {
			t := time.Now()
			err = in.IngestDatagram(d)
			tr.span("ingest.enqueue", t)
		} else {
			err = in.IngestDatagram(d)
		}
		if errors.Is(err, ingest.ErrClosed) {
			return err
		}
		return nil
	})
	if err != nil {
		return n, stats, fmt.Errorf("replay: %w", err)
	}
	return n, stats, nil
}
