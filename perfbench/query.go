package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/spool"
)

const (
	querySetups = 15
	// queryWMEvery is the live-serving watermark cadence in packets
	// (booterserve -watermark-every): about 1 ms of the slow writer's
	// stream, so a sealable week waits mostly for the pipeline, not for
	// the next broadcast, whose phase would otherwise dominate the few
	// dozen freshness samples of a run.
	queryWMEvery = 40
	// analystThink is the analyst's pause between a fit's response and
	// the next request, about seven fits' worth. With no pause the two
	// closed-loop clients alone ask for more than the two cores, and the
	// reads' share of them is the scheduler's choice rather than the
	// program's; with a fit running about a tenth of the time, the reads
	// and the writer's weeks mostly run beside the dashboard alone.
	analystThink = 200 * time.Millisecond
)

// runQuery is the serving workload: set-up builds the snapshot from the
// spool's first querySplitWeek weeks; during the measured phase a
// background writer feeds the remaining weeks at a fixed slow rate (so
// snapshots publish and invalidate the model memo) while two closed-loop
// clients read: the dashboard cycles cheap reads and the analyst fits
// distinct windows that all contain the takedown. After the phase the
// final panel and the manifest-window fit are checked.
func runQuery(e *env) error {
	var p plan
	if err := e.readPlan(&p); err != nil {
		return err
	}
	var reg *obs.Registry
	if e.tr != nil {
		reg = obs.NewRegistry()
	}
	split := e.man.Start.AddDate(0, 0, 7*p.SplitWeek)
	// cpu is the set-up ingest's CPU per datagram: during the measured
	// phase the closed-loop readers take whatever CPU is left, so CPU per
	// writer datagram there would only echo the readers' share.
	var setups, cpu []float64
	setupGate := e.gate()
	var s *sut
	var head uint64
	for i := 0; i < querySetups; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		var err error
		if s, err = newSUT(e, pipeConfig{shards: 2, wmEvery: queryWMEvery, metrics: reg}); err != nil {
			return err
		}
		st, err := spool.ReplayWindow(e.path("spool"), spool.ReplayOptions{To: split, Workers: 2}, func(d ingest.Datagram) error {
			return ingestDatagram(s.in, d)
		})
		if err != nil {
			s.close()
			return err
		}
		head = st.Records
		// Ready: the store holds the snapshot sealed through the last
		// week the set-up records can seal.
		sealed := e.man.Start.AddDate(0, 0, 7*(p.SplitWeek-2))
		for snap := s.srv.Engine().Snapshot(); snap == nil || !snap.Sealed || snap.Through.Start.Before(sealed); snap = s.srv.Engine().Snapshot() {
			if time.Since(t0) > time.Minute {
				s.close()
				return fmt.Errorf("set-up snapshot never sealed week %d", p.SplitWeek-2)
			}
			time.Sleep(100 * time.Microsecond)
		}
		setups = append(setups, time.Since(t0).Seconds())
		cpu = append(cpu, float64(cpuTime()-c0)/float64(head))
		setupGate.add(t0.UnixNano(), time.Now().UnixNano())
	}
	defer s.close()
	clock := newSealClock(e)
	clock.skipTo(p.SplitWeek - 1)
	if err := s.in.OnSnapshot(clock.published); err != nil {
		return err
	}
	_, miss0 := s.srv.Engine().ModelCacheStats()

	rt0 := readRuntime()
	hs := startHeapSampler(heapWindow)
	t0 := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rs readStats
	var models []float64
	var afailed int64
	fitGate := e.gate()
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient(s.srv.Addr())
		defer c.close()
		rs = dashboard(e, c, p.Reads, int(uint64(e.seed)%uint64(len(p.Reads))), stop, 1)
	}()
	go func() {
		defer wg.Done()
		c := newClient(s.srv.Addr())
		defer c.close()
		models, afailed = analyst(e, c, p.Windows, stop, fitGate, analystThink)
	}()
	fed, late, werr := feedPaced(e, s.in, split, uint64(p.Records)-head, clock)
	close(stop)
	wg.Wait()
	cs := e.mon.cleanSums(t0.UnixNano(), time.Now().UnixNano())
	peak := hs.peakMB()
	rt := readRuntime().sub(rt0)
	if werr != nil {
		return werr
	}
	_, miss1 := s.srv.Engine().ModelCacheStats()
	analystN := int64(len(models)) + afailed
	e.ops(rs.n+analystN+int64(fed), rs.failed+afailed)
	if int64(miss1-miss0) != analystN {
		e.fail("model memo: %d misses for %d analyst requests (every request must be a fresh fit)", miss1-miss0, analystN)
	}
	if len(models) == len(p.Windows) {
		e.fail("analyst ran out of distinct windows (%d)", len(p.Windows))
	}

	res, err := s.in.Close()
	if err != nil {
		return err
	}
	checkStats(e, res.Stats, uint64(p.Records))
	c := newClient(s.srv.Addr())
	e.check("panel", verifyPanel(e, c, res))
	_, err = verifyModel(e, s, c)
	e.check("model", err)
	c.close()

	fresh := clock.lags(e)
	cleanFits := fitGate.pick(models)
	e.e2e.set("setup_s", median(setupGate.pick(setups)), "s")
	e.e2e.set("throughput_pps", float64(cs.pkts)/(float64(cs.wall)/1e9), "1/s")
	e.e2e.set("cpu_ns_per_pkt", median(cpu), "ns")
	e.e2e.set("freshness_p50_ms", median(fresh), "ms")
	e.e2e.set("query_qps", float64(cs.reads)/(float64(cs.wall)/1e9), "1/s")
	e.e2e.set("query_p50_ms", median(rs.lat), "ms")
	e.e2e.set("model_p50_ms", median(cleanFits), "ms")
	e.e2e.set("peak_heap_mb", peak, "MB")

	e.tails(fresh, rs.lat, cleanFits, late)
	e.runtimeLayer(rt, fed)
	e.layerCount("ingest.snapshots", float64(clock.seen.Load()))
	e.layerCount("serve.model_misses", float64(miss1-miss0))
	e.programCounters(reg)
	return nil
}

// ingestDatagram feeds one datagram, ignoring per-datagram rejections
// (the pipeline counts them; the checks read the counts).
func ingestDatagram(in *ingest.Ingestor, d ingest.Datagram) error {
	if err := in.IngestDatagram(d); errors.Is(err, ingest.ErrClosed) {
		return err
	}
	return nil
}

// feedPaced is query's background writer: it feeds the spool from `from`
// on at the fixed rate that spreads the n remaining records over the
// measured phase, and returns the records fed and the sampled lateness
// behind schedule (ms).
func feedPaced(e *env, in *ingest.Ingestor, from time.Time, n uint64, clock *sealClock) (uint64, []float64, error) {
	interval := float64(e.dur) / float64(n)
	var fed uint64
	var late []float64
	tr := e.tr
	t0 := time.Now()
	_, err := spool.ReplayWindow(e.path("spool"), spool.ReplayOptions{From: from}, func(d ingest.Datagram) error {
		due := t0.Add(time.Duration(float64(fed) * interval))
		ahead := time.Until(due)
		if fed%lagSampleEvery == 0 {
			late = append(late, ms(max(-ahead, 0)))
		}
		// Sleep in short steps: a writer that slept in millisecond bursts
		// would make a week's freshness depend on whether its broadcast
		// fell in the same burst as the record that made it sealable.
		if ahead > 100*time.Microsecond {
			time.Sleep(ahead)
		}
		clock.observe(d.Time.UnixNano())
		e.mon.pkts.Add(1)
		var err error
		if tr != nil && fed%lagSampleEvery == 0 {
			t := time.Now()
			err = ingestDatagram(in, d)
			tr.span("ingest.enqueue", t)
		} else {
			err = ingestDatagram(in, d)
		}
		fed++
		return err
	})
	return fed, late, err
}
