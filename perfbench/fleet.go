package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"booters"
	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/spool"
	"booters/internal/wire"
)

const (
	fleetSessions  = 2
	fleetToken     = "perfbench"
	fleetWMEvery   = 256 // collector watermark cadence (booterserve -watermark-every)
	fleetSetups    = 31
	fleetFits      = 160   // about 4 s of fresh fits after the drain
	fleetReads     = 16384 // about 2 s of idle-server reads after them
	lagSampleEvery = 64
)

// runFleet is the deployed sensor path: a generator feeds the hostile
// stream on an open-loop schedule to one capture loop per session (each
// appends to its own none-codec spool), each session ships what its
// loop captured over loopback TCP with Linger, and an unordered rolling
// collector feeds the serve store. The stream is paced to last the
// measured phase. After the drain the panel is checked, every session's
// acked offset is checked against what was appended, and the analyst and
// then the dashboard read the final snapshot.
func runFleet(e *env) error {
	var p plan
	if err := e.readPlan(&p); err != nil {
		return err
	}
	var reg *obs.Registry
	if e.tr != nil {
		reg = obs.NewRegistry()
	}
	pc := pipeConfig{shards: 2, unordered: true, wmEvery: fleetWMEvery, metrics: reg}

	// Set-up: pipeline, server and collector bound; the last one built
	// is the one measured.
	var setups []float64
	setupGate := e.gate()
	var s *sut
	var col *wire.Collector
	for i := 0; i < fleetSetups; i++ {
		if s != nil {
			col.Close()
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = newSUT(e, pc); err != nil {
			return err
		}
		if col, err = booters.ListenWire(s.in, "127.0.0.1:0", fleetToken); err != nil {
			s.close()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupGate.add(t0.UnixNano(), time.Now().UnixNano())
	}
	defer s.close()
	closeCol := sync.OnceFunc(func() { col.Close() })
	defer closeCol()

	live := e.path("live")
	if err := os.RemoveAll(live); err != nil {
		return err
	}
	defer os.RemoveAll(live)
	clock := newSealClock(e)
	if err := s.in.OnSnapshot(clock.published); err != nil {
		return err
	}

	// Sensors first: they handshake and idle on an empty tail.
	perSession := p.Records/lagSampleEvery + 2
	sessions := make([]*capture, fleetSessions)
	reports := make([]wire.ShipReport, fleetSessions)
	shipErrs := make([]error, fleetSessions)
	var wg sync.WaitGroup
	for i := range sessions {
		var err error
		if sessions[i], err = newCapture(filepath.Join(live, fmt.Sprint(i)), perSession); err != nil {
			return err
		}
		feed := &tailFeed{c: sessions[i], tr: e.tr}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sessions[i].stop()
			reports[i], shipErrs[i] = wire.Ship(wire.SensorConfig{
				Addr:      col.Addr().String(),
				Sensor:    uint32(i + 1),
				Token:     fleetToken,
				Feed:      feed,
				Heartbeat: 20 * time.Millisecond,
				Linger:    200 * time.Millisecond,
			})
		}()
	}

	rt0 := readRuntime()
	hs := startHeapSampler(heapWindow)
	t0 := time.Now()
	g, genErr := pace(e, sessions, clock, p.Records)
	for i, c := range sessions {
		if err := c.close(); err != nil && genErr == nil {
			genErr = fmt.Errorf("close live spool %d: %w", i, err)
		}
	}
	if genErr != nil {
		closeCol() // unblocks the sensors
		wg.Wait()
		return genErr
	}
	// Delivered: every record handed to the pipeline.
	for s.in.Packets() < uint64(p.Records) && time.Since(t0) < e.dur+30*time.Second {
		time.Sleep(time.Millisecond)
	}
	wall := time.Since(t0)
	cs := e.mon.cleanSums(t0.UnixNano(), time.Now().UnixNano())
	wg.Wait()
	closeCol()
	res, err := s.in.Close()
	if err != nil {
		return err
	}
	peak := hs.peakMB()
	rt := readRuntime().sub(rt0)

	// Checks: acked equals shipped per session, nothing dropped, panel.
	var failed int64
	for i, c := range sessions {
		if shipErrs[i] != nil || reports[i].Acked != c.n {
			failed++
			e.fail("session %d: acked %d of %d appended: %v", i, reports[i].Acked, c.n, shipErrs[i])
		}
	}
	e.ops(int64(p.Records), int64(uint64(p.Records)-res.Stats.Packets)+failed)
	checkStats(e, res.Stats, uint64(p.Records))
	if g.lateEnd > 500*time.Millisecond {
		e.fail("generator backlog grew: %v behind schedule at the end", g.lateEnd)
	}
	c := newClient(s.srv.Addr())
	e.check("panel", verifyPanel(e, c, res))
	c.close()
	rs, models := readPhase(e, s, p.Reads, 0, p.Windows[:min(fleetFits, len(p.Windows))], fleetReads)

	fresh := clock.lags(e)
	e.e2e.set("setup_s", median(setupGate.pick(setups)), "s")
	e.e2e.set("throughput_pps", float64(p.Records)/wall.Seconds(), "1/s")
	e.e2e.set("cpu_ns_per_pkt", float64(cs.cpu)/float64(cs.pkts), "ns")
	e.e2e.set("freshness_p50_ms", median(fresh), "ms")
	e.e2e.set("query_qps", rs.qps(), "1/s")
	e.e2e.set("query_p50_ms", median(rs.lat), "ms")
	e.e2e.set("model_p50_ms", median(models), "ms")
	e.e2e.set("peak_heap_mb", peak, "MB")

	e.tails(fresh, rs.lat, models, g.late)
	e.runtimeLayer(rt, uint64(p.Records))
	e.layerCount("ingest.snapshots", float64(clock.seen.Load()))
	var recs, batches uint64
	var dials, resumes int
	for _, r := range reports {
		recs += r.Records
		batches += r.Batches
		dials += r.Dials
		resumes += r.Resumes
	}
	e.layerCount("wire.records_per_batch", float64(recs)/float64(max(batches, 1)))
	e.layerCount("wire.dials", float64(dials))
	e.layerCount("wire.resumes", float64(resumes))
	e.programCounters(reg)
	return nil
}

// genResult is what the open-loop generator reports.
type genResult struct {
	late    []float64 // sampled lateness behind schedule, ms
	lateEnd time.Duration
}

// pace appends the recorded stream to the sessions' capture loops at the
// fixed rate that spreads it over the measured phase, splitting it by
// sensor. Each record is due at t0 + i/rate; the generator sleeps when
// ahead and books how late it ran otherwise. It feeds the seal clock the
// fleet's low-watermark: the older of the sessions' newest appended
// times.
func pace(e *env, sessions []*capture, clock *sealClock, total int) (genResult, error) {
	var g genResult
	r, err := spool.Open(e.path("spool"))
	if err != nil {
		return g, err
	}
	defer r.Close()
	interval := float64(e.dur) / float64(total)
	var newest [fleetSessions]int64
	t0 := time.Now()
	for i := 0; ; i++ {
		d, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return g, err
		}
		due := t0.Add(time.Duration(float64(i) * interval))
		ahead := time.Until(due)
		if i%lagSampleEvery == 0 {
			g.late = append(g.late, ms(max(-ahead, 0)))
		}
		if ahead > time.Millisecond {
			time.Sleep(ahead)
		}
		sess := d.Sensor % fleetSessions
		if err := sessions[sess].append(d, e.tr); err != nil {
			return g, err
		}
		e.mon.pkts.Add(1)
		newest[sess] = d.Time.UnixNano()
		clock.observe(min(newest[0], newest[1]))
	}
	g.lateEnd = max(time.Since(t0)-e.dur, 0)
	return g, nil
}

// capture is one session's sensor capture loop: every record is
// appended to the session's spool (the durable copy a restarted sensor
// resumes from) and handed to the session's shipper through an in-memory
// ring. The shipper cannot tail the spool itself: wire.SpoolFeed's
// reader fixes its segment list when it opens and a live segment has no
// trailer yet, so records only become readable a whole segment at a
// time, and re-indexing a growing spool costs a file open per segment
// per poll (see README.md, "Findings").
type capture struct {
	w        *spool.Writer
	n        uint64         // records appended
	appendAt []atomic.Int64 // wall ns of every lagSampleEvery-th append

	mu      sync.Mutex
	ring    []ingest.Datagram // slot payloads own their backing arrays
	head    uint64            // next record the shipper takes
	tail    uint64            // next record the capture loop fills
	space   *sync.Cond
	stopped bool // the shipper returned; nothing will free space
}

// stop wakes a capture loop blocked on a full ring after its shipper
// returned.
func (c *capture) stop() {
	c.mu.Lock()
	c.stopped = true
	c.space.Broadcast()
	c.mu.Unlock()
}

func newCapture(dir string, perSession int) (*capture, error) {
	w, err := spool.Create(dir, spool.Options{})
	if err != nil {
		return nil, err
	}
	c := &capture{w: w, appendAt: make([]atomic.Int64, perSession), ring: make([]ingest.Datagram, captureRing)}
	c.space = sync.NewCond(&c.mu)
	return c, nil
}

// captureRing is the hand-off ring size in records: about 0.4 s of one
// session's stream, so a shipper stall shows as generator lateness
// instead of unbounded buffering.
const captureRing = 1 << 14

func (c *capture) append(d ingest.Datagram, tr *tracer) error {
	sampled := c.n%lagSampleEvery == 0
	var t time.Time
	if sampled {
		t = time.Now()
		c.appendAt[c.n/lagSampleEvery].Store(t.UnixNano())
	}
	if err := c.w.Append(d); err != nil {
		return err
	}
	if sampled {
		tr.span("spool.append", t)
	}
	c.n++
	c.mu.Lock()
	// One slot stays free: the shipper's last record is still in use
	// until its next call.
	for c.tail-c.head >= captureRing-1 && !c.stopped {
		c.space.Wait()
	}
	if c.stopped {
		c.mu.Unlock()
		return fmt.Errorf("capture: shipper stopped at offset %d", c.head)
	}
	slot := &c.ring[c.tail%captureRing]
	payload := append(slot.Payload[:0], d.Payload...)
	*slot = d
	slot.Payload = payload
	c.tail++
	c.mu.Unlock()
	return nil
}

func (c *capture) close() error { return c.w.Close() }

// tailFeed is the wire.Feed a session ships from: the capture ring, in
// append order. It supports only the forward seeks a fault-free session
// makes; a resume from an earlier offset fails the shipment.
type tailFeed struct {
	c   *capture
	off uint64 // cumulative offset of the record Next returns
	tr  *tracer
}

func (f *tailFeed) Seek(off uint64) error {
	if off != f.off {
		return fmt.Errorf("tail: cannot seek from %d to %d", f.off, off)
	}
	return nil
}

func (f *tailFeed) Offset() uint64 { return f.off }

func (f *tailFeed) Next() (ingest.Datagram, error) {
	c := f.c
	c.mu.Lock()
	// Release the record returned last time.
	if f.off > 0 && c.head < f.off {
		c.head = f.off
		c.space.Signal()
	}
	if f.off >= c.tail {
		c.mu.Unlock()
		return ingest.Datagram{}, io.EOF
	}
	d := c.ring[f.off%captureRing]
	c.mu.Unlock()
	if f.off%lagSampleEvery == 0 {
		f.tr.span("spool.tail_lag", time.Unix(0, c.appendAt[f.off/lagSampleEvery].Load()))
	}
	f.off++
	return d, nil
}
