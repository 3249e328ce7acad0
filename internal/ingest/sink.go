package ingest

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"booters/internal/honeypot"
	"booters/internal/timeseries"
)

// Sink is the pipeline's consumer-side extension point: it receives every
// closed flow, already classified, and fans results out beyond the weekly
// panel — external backends, live dashboards, flow archives.
//
// The interface is deliberately two-level so the fan-out adds no locks to
// the shard hot path. Open is called once, before any flow closes, and
// returns one SinkBranch per shard; branch i is then driven only by shard
// i's worker goroutine, so a branch needs no internal synchronisation.
// Cross-branch state (a shared output stream, a merged what-if series) is
// either merged once in Flush, after every worker has stopped, or handed
// between goroutines over channels the sink owns (as NDJSONSink does).
//
// A Sink instance serves a single run: Open a fresh one per Ingestor or
// Batch call.
type Sink interface {
	// Open prepares the sink for a run over the resolved configuration and
	// returns one branch per shard. It is called once, from a single
	// goroutine, before the pipeline accepts any packet.
	Open(cfg *Config, shards int) ([]SinkBranch, error)
	// Flush completes the run: it is called once after every branch has
	// received its final flow and all shard workers have stopped. Merged
	// views (totals, line counts) become valid when Flush returns.
	Flush() error
}

// SinkBranch is the per-shard consumer of one sink. Consume is invoked
// only by the owning shard's worker goroutine, one flow at a time.
type SinkBranch interface {
	// Consume receives one closed flow and its classification. An error
	// does not stop the pipeline: the run continues and the first sink
	// error is reported by Close (or Batch) after the Result is built.
	//
	// The *Flow is borrowed: the pipeline recycles it into the shard's
	// flow table as soon as every branch has returned, so a branch that
	// holds flow data past Consume must copy what it needs.
	Consume(f *honeypot.Flow, c honeypot.Classification) error
}

// errSinkReused is returned when a Sink's Open is called twice.
var errSinkReused = errors.New("ingest: sink already opened (a sink instance serves one run)")

// sinkSet wires a run's Config.Sinks, with branches transposed per shard.
type sinkSet struct {
	sinks    []Sink
	branches [][]SinkBranch // [shard][sink]
}

// openSinks opens every sink of cfg.Sinks for a run with the given shard
// count and transposes their branches so shard i can range over
// branches[i].
func openSinks(cfg *Config, shards int) (*sinkSet, error) {
	sinks := cfg.Sinks
	ss := &sinkSet{sinks: sinks, branches: make([][]SinkBranch, shards)}
	for i := range ss.branches {
		ss.branches[i] = make([]SinkBranch, 0, len(sinks))
	}
	for n, s := range sinks {
		bs, err := s.Open(cfg, shards)
		if err == nil && len(bs) != shards {
			err = errors.New("ingest: sink opened wrong branch count")
		}
		if err != nil {
			// Unwind the sinks already opened so none leaks a resource
			// (NDJSONSink's writer goroutine stops in Flush).
			for _, opened := range sinks[:n] {
				opened.Flush()
			}
			return nil, err
		}
		for i, b := range bs {
			ss.branches[i] = append(ss.branches[i], b)
		}
	}
	return ss, nil
}

// flush flushes every sink in registration order and returns the first
// error, so one failing sink never prevents the others from flushing.
func (ss *sinkSet) flush() error {
	var first error
	for _, s := range ss.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ndjsonFlushBytes is the branch buffer size that triggers a hand-off to
// the writer goroutine.
const ndjsonFlushBytes = 32 << 10

// NDJSONSink streams every closed flow — attacks and scans — to a writer
// as newline-delimited JSON, one object per line, while the run is still
// ingesting. Each branch encodes into a private buffer and hands full
// buffers to a single writer goroutine over a channel, so the output
// stream needs no lock and lines are never interleaved mid-record. Line
// order across shards is arrival order, not globally sorted.
//
// Each line has the fixed field order
//
//	{"class":…,"proto":…,"victim":…,"first":…,"last":…,"packets":…,"bytes":…,"peak":…}
//
// with RFC 3339 timestamps in UTC and peak the largest per-sensor packet
// count (the classifier's input).
type NDJSONSink struct {
	w        io.Writer
	branches []*ndjsonBranch
	ch       chan []byte
	done     chan struct{}
	err      error // first write error; written by the writer goroutine, read after done
	lines    uint64
	pool     sync.Pool
}

// NewNDJSONSink returns a sink streaming to w. The writer is used from a
// single goroutine; wrap it for rotation or compression as needed.
func NewNDJSONSink(w io.Writer) *NDJSONSink { return &NDJSONSink{w: w} }

// Open starts the writer goroutine and allocates one encoding branch per
// shard.
func (s *NDJSONSink) Open(cfg *Config, shards int) ([]SinkBranch, error) {
	if s.branches != nil {
		return nil, errSinkReused
	}
	s.ch = make(chan []byte, 2*shards)
	s.done = make(chan struct{})
	go s.writeLoop()
	s.branches = make([]*ndjsonBranch, shards)
	out := make([]SinkBranch, shards)
	for i := range s.branches {
		s.branches[i] = &ndjsonBranch{sink: s, buf: s.getBuf()}
		out[i] = s.branches[i]
	}
	return out, nil
}

// writeLoop drains handed-off buffers into the underlying writer,
// recording the first error and recycling buffers.
func (s *NDJSONSink) writeLoop() {
	defer close(s.done)
	for buf := range s.ch {
		if s.err == nil {
			if _, err := s.w.Write(buf); err != nil {
				s.err = err
			}
		}
		s.putBuf(buf)
	}
}

// Flush drains every branch's tail buffer, stops the writer goroutine and
// reports the first write error.
func (s *NDJSONSink) Flush() error {
	for _, b := range s.branches {
		if len(b.buf) > 0 {
			s.ch <- b.buf
			b.buf = nil
		}
		s.lines += b.lines
	}
	close(s.ch)
	<-s.done
	return s.err
}

// Lines returns the number of flows written; valid after Flush.
func (s *NDJSONSink) Lines() uint64 { return s.lines }

func (s *NDJSONSink) getBuf() []byte {
	if v := s.pool.Get(); v != nil {
		return (*v.(*[]byte))[:0]
	}
	return make([]byte, 0, ndjsonFlushBytes+1024)
}

func (s *NDJSONSink) putBuf(b []byte) { s.pool.Put(&b) }

// ndjsonBranch encodes one shard's closed flows into a private buffer.
type ndjsonBranch struct {
	sink  *NDJSONSink
	buf   []byte
	lines uint64
}

// Consume appends one flow as a JSON line, handing the buffer to the
// writer goroutine when it fills.
func (b *ndjsonBranch) Consume(f *honeypot.Flow, c honeypot.Classification) error {
	b.buf = appendFlowJSON(b.buf, f, c)
	b.lines++
	if len(b.buf) >= ndjsonFlushBytes {
		b.sink.ch <- b.buf
		b.buf = b.sink.getBuf()
	}
	return nil
}

// appendFlowJSON hand-encodes one flow (protocol names, country codes and
// classifications are plain ASCII, so no JSON escaping is needed); keeping
// encoding/json off this path makes the three-sink fan-out benchmark
// nearly free.
func appendFlowJSON(dst []byte, f *honeypot.Flow, c honeypot.Classification) []byte {
	dst = append(dst, `{"class":"`...)
	dst = append(dst, c.String()...)
	dst = append(dst, `","proto":"`...)
	dst = append(dst, f.Key.Proto.String()...)
	dst = append(dst, `","victim":"`...)
	dst = f.Key.Victim.AppendTo(dst)
	dst = append(dst, `","first":"`...)
	dst = f.First.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","last":"`...)
	dst = f.Last.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","packets":`...)
	dst = strconv.AppendInt(dst, int64(f.TotalPackets), 10)
	dst = append(dst, `,"bytes":`...)
	dst = strconv.AppendInt(dst, int64(f.TotalBytes), 10)
	dst = append(dst, `,"peak":`...)
	dst = strconv.AppendInt(dst, int64(f.MaxSensorPackets()), 10)
	dst = append(dst, "}\n"...)
	return dst
}

// MitigationResult is the what-if answer a MitigationSink accumulates:
// the weekly attack volume that a per-victim cap would have admitted
// versus mitigated.
type MitigationResult struct {
	// Admitted is the weekly count of attack flows under the cap.
	Admitted *timeseries.Series
	// Mitigated is the weekly count of attack flows over it.
	Mitigated *timeseries.Series
	// AttacksAdmitted and AttacksMitigated are the totals.
	AttacksAdmitted, AttacksMitigated int
}

// MitigationSink is a MiddlePolice-style what-if Sink: it caps the
// attack flows admitted per victim per week and accounts the rest as
// mitigated, answering "how much attack volume would a per-victim
// mitigation contract have let through" on any stream the pipeline
// ingests. Victim-hash sharding sends all of one victim's flows to one
// shard, so each branch keeps its per-victim counters lock-free; the
// admitted count per victim-week is min(count, cap) — independent of
// arrival order, so the result is deterministic for order-tolerant
// pipelines too. Use one fresh sink per run.
type MitigationSink struct {
	cap      int
	branches []*mitigationBranch
	res      MitigationResult
}

// NewMitigationSink returns a sink capping admitted attack flows at
// perVictimWeekly per victim per week.
func NewMitigationSink(perVictimWeekly int) *MitigationSink {
	return &MitigationSink{cap: perVictimWeekly}
}

// Open implements Sink: one branch per shard, spans taken from the
// pipeline config.
func (s *MitigationSink) Open(cfg *Config, shards int) ([]SinkBranch, error) {
	if s.cap <= 0 {
		return nil, fmt.Errorf("ingest: MitigationSink cap must be positive, got %d", s.cap)
	}
	if s.branches != nil {
		return nil, fmt.Errorf("ingest: MitigationSink reused; each run needs a fresh sink")
	}
	start := timeseries.WeekOf(cfg.Start)
	weeks := timeseries.WeeksBetween(start, timeseries.WeekOf(cfg.End)) + 1
	out := make([]SinkBranch, shards)
	s.branches = make([]*mitigationBranch, shards)
	for i := range out {
		b := &mitigationBranch{
			cap:       s.cap,
			admitted:  timeseries.NewSeries(start, weeks),
			mitigated: timeseries.NewSeries(start, weeks),
			counts:    make(map[victimWeek]int),
		}
		s.branches[i] = b
		out[i] = b
	}
	s.res = MitigationResult{
		Admitted:  timeseries.NewSeries(start, weeks),
		Mitigated: timeseries.NewSeries(start, weeks),
	}
	return out, nil
}

// Flush implements Sink: merge the per-shard branches.
func (s *MitigationSink) Flush() error {
	for _, b := range s.branches {
		if err := s.res.Admitted.AddSeries(b.admitted); err != nil {
			return err
		}
		if err := s.res.Mitigated.AddSeries(b.mitigated); err != nil {
			return err
		}
		s.res.AttacksAdmitted += int(b.admitted.Total())
		s.res.AttacksMitigated += int(b.mitigated.Total())
	}
	return nil
}

// Result returns the merged what-if answer; valid after the pipeline's
// Close.
func (s *MitigationSink) Result() MitigationResult { return s.res }

// victimWeek keys a branch's per-victim weekly counter.
type victimWeek struct {
	victim netip.Addr
	week   int
}

// mitigationBranch is one shard's lock-free counter set.
type mitigationBranch struct {
	cap                 int
	admitted, mitigated *timeseries.Series
	counts              map[victimWeek]int
}

// Consume implements SinkBranch.
func (b *mitigationBranch) Consume(f *honeypot.Flow, c honeypot.Classification) error {
	if c != honeypot.Attack {
		return nil
	}
	w := b.admitted.IndexOfTime(f.First)
	if w < 0 {
		return nil
	}
	k := victimWeek{f.Key.Victim, w}
	n := b.counts[k] + 1
	b.counts[k] = n
	if n <= b.cap {
		b.admitted.Values[w]++
	} else {
		b.mitigated.Values[w]++
	}
	return nil
}
