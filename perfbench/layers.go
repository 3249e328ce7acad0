package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"booters"
	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/its"
	"booters/internal/obs"
	"booters/internal/protocols"
	"booters/internal/spool"
	"booters/internal/timeseries"
	"booters/internal/wire"
)

// layerNames is the per-layer metric set every traced run prints, in
// order, with units. It must match BENCHMARK.json's per_layer list.
var layerNames = []struct{ name, unit string }{
	{"spool.read_ns_per_rec", "ns"},
	{"spool.read_ns_per_rec_2r", "ns"},
	{"spool.bytes_per_rec", "B"},
	{"spool.append_ns_per_rec", "ns"},
	{"spool.tail_lag_ms", "ms"},
	{"spool.torn_segments", "count"},
	{"protocols.validate_ns_per_dgram", "ns"},
	{"protocols.rejected", "count"},
	{"honeypot.ordered_ns_per_pkt", "ns"},
	{"honeypot.merge_ns_per_pkt", "ns"},
	{"honeypot.allocs_per_pkt_ordered", "count"},
	{"honeypot.allocs_per_pkt_merge", "count"},
	{"honeypot.open_flows_peak", "count"},
	{"ingest.new_ms", "ms"},
	{"ingest.enqueue_ns_per_pkt", "ns"},
	{"ingest.close_ms", "ms"},
	{"ingest.seal_lag_ms", "ms"},
	{"ingest.snapshots", "count"},
	{"ingest.late", "count"},
	{"ingest.shed", "count"},
	{"ingest.dupes", "count"},
	{"ingest.serial_pps", "1/s"},
	{"ingest.residual_ns_per_pkt", "ns"},
	{"ingest.scaling_gmp1_x", "x"},
	{"ingest.scaling_gmp2_x", "x"},
	{"wire.encode_ns_per_rec", "ns"},
	{"wire.decode_ns_per_rec", "ns"},
	{"wire.bytes_per_rec", "B"},
	{"wire.records_per_batch", "count"},
	{"wire.ship_closed_pps", "1/s"},
	{"wire.dials", "count"},
	{"wire.resumes", "count"},
	{"serve.panel_us", "us"},
	{"serve.series_us", "us"},
	{"serve.top_us", "us"},
	{"serve.status_us", "us"},
	{"serve.http_overhead_us", "us"},
	{"serve.response_bytes", "B"},
	{"serve.model_fit_ms", "ms"},
	{"serve.model_hit_us", "us"},
	{"serve.model_misses", "count"},
	{"serve.publish_us", "us"},
	{"its.search_ms", "ms"},
	{"its.fit_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_bytes_per_pkt", "B"},
	{"tail.freshness_p99_ms", "ms"},
	{"tail.read_p99_ms", "ms"},
	{"tail.model_p90_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// primary names the end-to-end metric trace.overhead_pct compares per
// workload, and whether higher is better for it.
var primary = map[string]struct {
	name   string
	higher bool
}{
	"replay": {"throughput_pps", true},
	"fleet":  {"cpu_ns_per_pkt", false},
	"query":  {"query_p50_ms", false},
}

// layerCount books a per-layer value.
func (e *env) layerCount(name string, v float64) { e.layer.set(name, v, "") }

// tails books the tail percentiles of a pass.
func (e *env) tails(fresh, reads, models, late []float64) {
	e.layerCount("tail.freshness_p99_ms", quantile(fresh, 0.99))
	e.layerCount("tail.read_p99_ms", quantile(reads, 0.99))
	e.layerCount("tail.model_p90_ms", quantile(models, 0.9))
	e.layerCount("gen.late_p99_ms", quantile(late, 0.99))
}

// runtimeLayer books the collector's work over a measured phase.
func (e *env) runtimeLayer(rt runtimeStats, pkts uint64) {
	e.layerCount("runtime.gc_cycles", float64(rt.gcCycles))
	e.layerCount("runtime.gc_pause_ms", rt.pauseNs/1e6)
	e.layerCount("runtime.alloc_bytes_per_pkt", float64(rt.allocBytes)/float64(max(pkts, 1)))
}

// programCounters books the program's own counters from a traced pass.
func (e *env) programCounters(reg *obs.Registry) {
	if reg == nil {
		return
	}
	dups, _ := reg.Sum("booters_wire_records_dup_total")
	e.layerCount("ingest.dupes", dups)
}

// runTraced is the --trace 1 invocation: an untraced pass and a traced
// pass of the workload, half the measured time each (their difference
// is the tracing overhead), then the layer-cut passes over the same
// inputs.
func runTraced(e *env, workload string, run func(*env) error) error {
	full := e.dur
	e.dur = max(full/2, time.Second)
	if err := run(e); err != nil {
		return err
	}
	base := e.e2e
	e.e2e, e.tr = newMetricSet(), newTracer()
	if err := run(e); err != nil {
		return err
	}
	pm := primary[workload]
	u, t := base.get(pm.name), e.e2e.get(pm.name)
	if pm.higher {
		e.layerCount("trace.overhead_pct", (u/t-1)*100)
	} else {
		e.layerCount("trace.overhead_pct", (t/u-1)*100)
	}
	e.layerCount("spool.tail_lag_ms", e.tr.median("spool.tail_lag")/1e6)
	// The in-place timings beside their layer cuts, which run alone.
	fmt.Fprintf(os.Stderr, "traced pass p50 (ns per call, every 64th): IngestDatagram %.0f, Writer.Append %.0f\n",
		e.tr.median("ingest.enqueue"), e.tr.median("spool.append"))
	if err := layerCuts(e, workload); err != nil {
		return err
	}
	final := newMetricSet()
	for _, l := range layerNames {
		final.set(l.name, e.layer.get(l.name), l.unit)
	}
	e.layer = final
	return nil
}

// spoolBatches reads the spool in order and hands fn batches of up to n
// datagrams whose payloads are copies, valid until fn returns.
func spoolBatches(dir string, n int, fn func([]ingest.Datagram) error) error {
	r, err := spool.Open(dir)
	if err != nil {
		return err
	}
	defer r.Close()
	batch := make([]ingest.Datagram, 0, n)
	arena := make([]byte, 0, n*64)
	for {
		d, err := r.Next()
		if err != nil && err != io.EOF {
			return err
		}
		if err == nil {
			if len(arena)+len(d.Payload) > cap(arena) {
				arena = make([]byte, 0, max(cap(arena), len(d.Payload)))
			}
			start := len(arena)
			arena = append(arena, d.Payload...)
			d.Payload = arena[start:len(arena):len(arena)]
			batch = append(batch, d)
		}
		if len(batch) == n || (err == io.EOF && len(batch) > 0) {
			if ferr := fn(batch); ferr != nil {
				return ferr
			}
			batch, arena = batch[:0], arena[:0]
		}
		if err == io.EOF {
			return nil
		}
	}
}

// allocObjects reads the cumulative heap allocation count.
func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// stopwatch accumulates the time and allocations of timed sections.
type stopwatch struct {
	ns, allocs uint64
	t          time.Time
	a          uint64
}

func (s *stopwatch) start() { s.a, s.t = allocObjects(), time.Now() }
func (s *stopwatch) stop() {
	s.ns += uint64(time.Since(s.t))
	s.allocs += allocObjects() - s.a
}

// median3 runs f three times and returns the median of its results.
func median3(f func() (float64, error)) (float64, error) {
	var xs []float64
	for i := 0; i < 3; i++ {
		x, err := f()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// layerCuts runs each layer's exported functions alone over the
// workload's recorded stream.
func layerCuts(e *env, workload string) error {
	dir := e.path("spool")
	// The pipeline cuts use the workload's own watermark cadence.
	wmEvery := map[string]int{"fleet": fleetWMEvery, "query": queryWMEvery}[workload]
	var torn int
	readNs := func(workers int) func() (float64, error) {
		return func() (float64, error) {
			t := time.Now()
			st, err := spool.ReplayWindow(dir, spool.ReplayOptions{Workers: workers}, func(ingest.Datagram) error { return nil })
			if err != nil {
				return 0, err
			}
			torn += len(st.Torn)
			return float64(time.Since(t)) / float64(st.Records), nil
		}
	}
	read1, err := median3(readNs(1))
	if err != nil {
		return err
	}
	read2, err := median3(readNs(2))
	if err != nil {
		return err
	}
	e.layerCount("spool.read_ns_per_rec", read1)
	e.layerCount("spool.read_ns_per_rec_2r", read2)
	e.layerCount("spool.torn_segments", float64(torn))
	idx, err := spool.LoadIndex(dir)
	if err != nil {
		return err
	}
	var stored, recs uint64
	for _, s := range idx.Segments {
		stored += s.StoredBytes
		recs += s.Records
	}
	e.layerCount("spool.bytes_per_rec", float64(stored)/float64(recs))
	if err := cutAppend(e, dir, idx.Segments[0].Codec); err != nil {
		return err
	}

	validate, err := cutDecodeAggregate(e, dir)
	if err != nil {
		return err
	}
	if err := cutIngest(e, dir, wmEvery, read1, validate); err != nil {
		return err
	}
	if err := cutWire(e, dir); err != nil {
		return err
	}
	return cutServe(e)
}

// cutAppend times Writer.Append of the stream into a scratch spool with
// the workload's codec.
func cutAppend(e *env, dir, codecName string) error {
	scratch := e.path("cut-append")
	os.RemoveAll(scratch)
	defer os.RemoveAll(scratch)
	codec, err := spool.CodecByName(codecName)
	if err != nil {
		return err
	}
	w, err := spool.Create(scratch, spool.Options{Codec: codec})
	if err != nil {
		return err
	}
	var sw stopwatch
	err = spoolBatches(dir, 4096, func(b []ingest.Datagram) error {
		sw.start()
		defer sw.stop()
		for _, d := range b {
			if err := w.Append(d); err != nil {
				return err
			}
		}
		return nil
	})
	sw.start()
	cerr := w.Close()
	sw.stop()
	if err != nil || cerr != nil {
		return errors.Join(err, cerr)
	}
	e.layerCount("spool.append_ns_per_rec", float64(sw.ns)/float64(w.Count()))
	return nil
}

// cutDecodeAggregate times protocol validation and both flow
// aggregators over the stream, and returns the validation cost.
func cutDecodeAggregate(e *env, dir string) (float64, error) {
	var val, ord, mrg stopwatch
	var n, rejected uint64
	var peak int
	oa, ma := honeypot.NewAggregator(), honeypot.NewMergeAggregator()
	pkts := make([]honeypot.Packet, 0, 4096)
	err := spoolBatches(dir, 4096, func(b []ingest.Datagram) error {
		pkts = pkts[:0]
		val.start()
		for _, d := range b {
			proto, ok := protocols.ByPort(d.Port)
			if !ok || proto.ValidateRequest(d.Payload) != nil {
				rejected++
				continue
			}
			pkts = append(pkts, honeypot.Packet{Time: d.Time, Victim: d.Victim, Proto: proto, Sensor: d.Sensor, Size: len(d.Payload)})
		}
		val.stop()
		n += uint64(len(b))

		ord.start()
		for _, p := range pkts {
			if err := oa.Offer(p); err != nil {
				return fmt.Errorf("ordered aggregator: %w", err)
			}
		}
		for _, f := range oa.Completed() {
			oa.Recycle(f)
		}
		ord.stop()
		peak = max(peak, oa.OpenFlows())

		mrg.start()
		for _, p := range pkts {
			if err := ma.Offer(p); err != nil {
				return fmt.Errorf("merge aggregator: %w", err)
			}
		}
		if len(pkts) > 0 {
			ma.Advance(pkts[len(pkts)-1].Time)
		}
		for _, f := range ma.Completed() {
			ma.Recycle(f)
		}
		mrg.stop()
		return nil
	})
	if err != nil {
		return 0, err
	}
	e.layerCount("protocols.validate_ns_per_dgram", float64(val.ns)/float64(n))
	e.layerCount("protocols.rejected", float64(rejected))
	e.layerCount("honeypot.ordered_ns_per_pkt", float64(ord.ns)/float64(n))
	e.layerCount("honeypot.merge_ns_per_pkt", float64(mrg.ns)/float64(n))
	e.layerCount("honeypot.allocs_per_pkt_ordered", float64(ord.allocs)/float64(n))
	e.layerCount("honeypot.allocs_per_pkt_merge", float64(mrg.allocs)/float64(n))
	e.layerCount("honeypot.open_flows_peak", float64(peak))
	return float64(val.ns) / float64(n), nil
}

// cutIngest times the pipeline's own calls: construction, caller-side
// enqueue, Close, the serial baseline and 2-core scaling, and the seal
// lag from Source.Advance to a published snapshot.
func cutIngest(e *env, dir string, wmEvery int, read1, validate float64) error {
	cfg := func(shards int, unordered bool) ingest.Config {
		return ingest.Config{Shards: shards, Start: e.man.Start, End: e.man.End(), Rolling: true,
			Unordered: unordered, WatermarkEvery: wmEvery}
	}
	var news []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		in, err := ingest.New(cfg(2, false))
		if err != nil {
			return err
		}
		news = append(news, ms(time.Since(t)))
		in.Close()
	}
	e.layerCount("ingest.new_ms", median(news))

	in, err := ingest.New(cfg(2, false))
	if err != nil {
		return err
	}
	var enq stopwatch
	var n uint64
	err = spoolBatches(dir, 4096, func(b []ingest.Datagram) error {
		enq.start()
		defer enq.stop()
		n += uint64(len(b))
		for _, d := range b {
			if err := ingestDatagram(in, d); err != nil {
				return err
			}
		}
		return nil
	})
	t := time.Now()
	_, cerr := in.Close()
	if err != nil || cerr != nil {
		return errors.Join(err, cerr)
	}
	e.layerCount("ingest.close_ms", ms(time.Since(t)))
	e.layerCount("ingest.enqueue_ns_per_pkt", float64(enq.ns)/float64(n))

	// Serial baseline and scaling: spool -> pipeline -> Close, pkts/s.
	replayPPS := func(shards, readers, procs int) func() (float64, error) {
		return func() (float64, error) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			t := time.Now()
			in, err := ingest.New(cfg(shards, false))
			if err != nil {
				return 0, err
			}
			n, _, err := replaySpool(&env{}, in, dir, readers, nil)
			if _, cerr := in.Close(); err != nil || cerr != nil {
				return 0, errors.Join(err, cerr)
			}
			return float64(n) / time.Since(t).Seconds(), nil
		}
	}
	serial, err := median3(replayPPS(1, 1, 1))
	if err != nil {
		return err
	}
	gmp1, err := median3(replayPPS(2, 2, 1))
	if err != nil {
		return err
	}
	gmp2, err := median3(replayPPS(2, 2, 2))
	if err != nil {
		return err
	}
	e.layerCount("ingest.serial_pps", serial)
	e.layerCount("ingest.residual_ns_per_pkt", 1e9/serial-read1-validate-e.layer.get("honeypot.ordered_ns_per_pkt"))
	e.layerCount("ingest.scaling_gmp1_x", gmp1/serial)
	e.layerCount("ingest.scaling_gmp2_x", gmp2/serial)
	fmt.Fprintf(os.Stderr, "stage sum (ns/pkt, 1 reader, GOMAXPROCS 1 baseline %.0f): read %.1f + validate %.1f + ordered %.1f + residual %.1f\n",
		1e9/serial, read1, validate, e.layer.get("honeypot.ordered_ns_per_pkt"), e.layer.get("ingest.residual_ns_per_pkt"))
	fmt.Fprintf(os.Stderr, "scaling (2 shards, 2 readers) over serial: GOMAXPROCS 1 %.2fx, 2 %.2fx\n", gmp1/serial, gmp2/serial)

	// Seal lag: an order-tolerant pipeline fed from one source that
	// advances every 256 records, no wire in the path.
	in, err = ingest.New(cfg(2, true))
	if err != nil {
		return err
	}
	clock := newSealClock(e)
	if err := in.OnSnapshot(clock.published); err != nil {
		in.Close()
		return err
	}
	src := in.RegisterSource()
	var k int
	err = spoolBatches(dir, 4096, func(b []ingest.Datagram) error {
		for _, d := range b {
			if err := ingestDatagram(in, d); err != nil {
				return err
			}
			if k++; k%256 == 0 {
				src.Advance(d.Time)
				clock.observe(d.Time.UnixNano())
			}
		}
		return nil
	})
	src.Close()
	if _, cerr := in.Close(); err != nil || cerr != nil {
		return errors.Join(err, cerr)
	}
	e.layerCount("ingest.seal_lag_ms", median(clock.lags(e)))
	return nil
}

// cutWire times batch framing both ways and unpaced shipping of the
// recorded spool into a collector.
func cutWire(e *env, dir string) error {
	var enc, dec stopwatch
	var n, frameBytes uint64
	var payload, frames []byte
	err := spoolBatches(dir, wire.DefaultBatchRecords, func(b []ingest.Datagram) error {
		enc.start()
		payload = wire.AppendBatchHeader(payload[:0], wire.BatchHeader{Base: n, Count: uint32(len(b))}, wire.ProtocolVersion)
		for _, d := range b {
			var err error
			if payload, err = spool.AppendRecord(payload, d); err != nil {
				return err
			}
		}
		var err error
		frames, err = wire.AppendFrame(frames[:0], wire.FrameBatch, payload)
		enc.stop()
		if err != nil {
			return err
		}
		n += uint64(len(b))
		frameBytes += uint64(len(frames))

		dec.start()
		defer dec.stop()
		fr := wire.NewFrameReader(bytes.NewReader(frames))
		_, p, err := fr.Next()
		if err != nil {
			return err
		}
		h, rest, err := wire.DecodeBatchHeader(p, wire.ProtocolVersion)
		if err != nil {
			return err
		}
		return wire.DecodeBatchRecords(h, rest, func(uint32, ingest.Datagram) error { return nil })
	})
	if err != nil {
		return err
	}
	e.layerCount("wire.encode_ns_per_rec", float64(enc.ns)/float64(n))
	e.layerCount("wire.decode_ns_per_rec", float64(dec.ns)/float64(n))
	e.layerCount("wire.bytes_per_rec", float64(frameBytes)/float64(n))

	in, err := ingest.New(ingest.Config{Shards: 2, Start: e.man.Start, End: e.man.End(), Rolling: true, Unordered: true, WatermarkEvery: fleetWMEvery})
	if err != nil {
		return err
	}
	col, err := booters.ListenWire(in, "127.0.0.1:0", fleetToken)
	if err != nil {
		in.Close()
		return err
	}
	t := time.Now()
	rep, err := booters.ShipSpool(col.Addr().String(), fleetToken, 1, dir)
	took := time.Since(t)
	col.Close()
	if _, cerr := in.Close(); err != nil || cerr != nil {
		return errors.Join(err, cerr)
	}
	if rep.Acked != n {
		return fmt.Errorf("closed-loop ship acked %d of %d", rep.Acked, n)
	}
	e.layerCount("wire.ship_closed_pps", float64(n)/took.Seconds())
	if _, ok := e.layer.vals["wire.dials"]; !ok {
		e.layerCount("wire.records_per_batch", float64(rep.Records)/float64(max(rep.Batches, 1)))
		e.layerCount("wire.dials", float64(rep.Dials))
		e.layerCount("wire.resumes", float64(rep.Resumes))
	}
	return nil
}

// cutServe times the Engine's query calls against the final panel, the
// same reads over HTTP one at a time, cold and memoized fits, snapshot
// publishes, and the its fits underneath the engine.
func cutServe(e *env) error {
	var p plan
	if err := e.readPlan(&p); err != nil {
		return err
	}
	s, err := newSUT(e, pipeConfig{shards: 2})
	if err != nil {
		return err
	}
	defer s.close()
	if _, _, err := replaySpool(&env{}, s.in, e.path("spool"), 2, nil); err != nil {
		return err
	}
	if _, err := s.in.Close(); err != nil {
		return err
	}
	eng := s.srv.Engine()
	engine := map[string][]float64{}
	for i := 0; i < 4000; i++ {
		path := p.Reads[i%len(p.Reads)]
		cl := readClass(path)
		q := queryOf(path)
		k, _ := strconv.Atoi(q["k"])
		t := time.Now()
		var err error
		switch cl {
		case "panel":
			if eng.Snapshot() == nil {
				err = errors.New("no snapshot")
			}
		case "series":
			_, err = eng.Series(q["country"], q["proto"])
		case "top":
			if q["by"] == "country" {
				_, err = eng.TopCountries(k)
			} else {
				_, err = eng.TopProtocols(k)
			}
		case "status":
			eng.Status()
		}
		engine[cl] = append(engine[cl], float64(time.Since(t))/1e3)
		if err != nil {
			return fmt.Errorf("engine %s: %w", path, err)
		}
	}
	c := newClient(s.srv.Addr())
	defer c.close()
	rs := dashboard(e, c, p.Reads, 0, closed, 4000)
	e.ops(rs.n, rs.failed)
	var over float64
	fmt.Fprintln(os.Stderr, "engine vs HTTP p50 (us):")
	for _, cl := range []string{"panel", "series", "top", "status"} {
		eu, hu := median(engine[cl]), median(rs.byClass[cl])*1e3
		e.layerCount("serve."+cl+"_us", eu)
		over += (hu - eu) / 4
		fmt.Fprintf(os.Stderr, "  %-6s engine %8.2f  http %8.2f  overhead %8.2f\n", cl, eu, hu, hu-eu)
	}
	e.layerCount("serve.http_overhead_us", over)
	e.layerCount("serve.response_bytes", float64(rs.bytes)/float64(rs.n))

	// Fits: cold (fresh windows) then memoized (the same windows again).
	var cold, hit, search, fit []float64
	_, m0 := eng.ModelCacheStats()
	ws := p.Windows[:min(8, len(p.Windows))]
	week := func(w int) time.Time { return e.man.Start.AddDate(0, 0, 7*w) }
	for _, w := range ws {
		t := time.Now()
		if _, err := eng.Model(week(w[0]), week(w[1])); err != nil {
			return fmt.Errorf("engine model %v: %w", w, err)
		}
		cold = append(cold, ms(time.Since(t)))
	}
	for _, w := range ws {
		t := time.Now()
		eng.Model(week(w[0]), week(w[1]))
		hit = append(hit, float64(time.Since(t))/1e3)
	}
	_, m1 := eng.ModelCacheStats()
	if _, ok := e.layer.vals["serve.model_misses"]; !ok {
		e.layerCount("serve.model_misses", float64(m1-m0))
	}
	e.layerCount("serve.model_fit_ms", median(cold))
	e.layerCount("serve.model_hit_us", median(hit))
	global := eng.Snapshot().Global
	for _, w := range ws[:min(4, len(ws))] {
		sl := global.Slice(timeseries.WeekOf(week(w[0])), timeseries.WeekOf(week(w[1])))
		t := time.Now()
		if _, err := its.SearchAllDurations(sl, its.DefaultSpec(e.man.Interventions()), 3); err != nil {
			return err
		}
		search = append(search, ms(time.Since(t)))
		t = time.Now()
		if _, err := its.Fit(sl, its.DefaultSpec(nil)); err != nil {
			return err
		}
		fit = append(fit, ms(time.Since(t)))
	}
	e.layerCount("its.search_ms", median(search))
	e.layerCount("its.fit_ms", median(fit))

	// Publish: swap copies of the final snapshot with rising sequence
	// numbers into the store.
	snap := *eng.Snapshot()
	var pub []float64
	for i := 0; i < 1000; i++ {
		next := snap
		next.Seq += uint64(i + 1)
		t := time.Now()
		s.srv.Publish(&next)
		pub = append(pub, float64(time.Since(t))/1e3)
	}
	e.layerCount("serve.publish_us", median(pub))
	return nil
}
