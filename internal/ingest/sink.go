package ingest

import (
	"errors"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/protocols"
)

// Sink is the pipeline's consumer-side extension point: it receives every
// closed flow, already classified, and fans results out beyond the weekly
// panel — external backends, live dashboards, flow archives.
//
// The interface is deliberately two-level so the fan-out adds no locks to
// the shard hot path. Open is called once, before any flow closes, and
// returns one SinkBranch per shard; branch i is then driven only by shard
// i's worker goroutine, so a branch needs no internal synchronisation.
// Cross-branch state (a shared output stream, a global ranking) is either
// merged once in Flush, after every worker has stopped, or handed between
// goroutines over channels the sink owns (as NDJSONSink does).
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
	// views (rankings, totals) become valid when Flush returns.
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

// sinkSet wires a run's sinks: the implicit panel sink first, then the
// caller's Config.Sinks, with branches transposed per shard.
type sinkSet struct {
	sinks    []Sink
	branches [][]SinkBranch // [shard][sink]
}

// openSinks opens every sink for a run with the given shard count and
// transposes their branches so shard i can range over branches[i].
func openSinks(cfg *Config, shards int, sinks ...Sink) (*sinkSet, error) {
	sinks = append(sinks, cfg.Sinks...)
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
// error, so a failing export sink never prevents the panel from merging.
func (ss *sinkSet) flush() error {
	var first error
	for _, s := range ss.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// panelSink is the weekly-panel accumulator expressed as a Sink: each
// branch folds closed flows into a shard-local panel and Flush sums them
// into a Result. Every run opens one ahead of Config.Sinks; Close and
// Batch return its Result.
type panelSink struct {
	branches []*accumulator
	res      *Result
}

// Open allocates one span-aligned accumulator per shard.
func (ps *panelSink) Open(cfg *Config, shards int) ([]SinkBranch, error) {
	if ps.branches != nil {
		return nil, errSinkReused
	}
	ps.branches = make([]*accumulator, shards)
	out := make([]SinkBranch, shards)
	for i := range ps.branches {
		ps.branches[i] = newAccumulator(cfg)
		out[i] = ps.branches[i]
	}
	return out, nil
}

// Flush sums the shard accumulators in place into the first and wraps
// that sum as the Result.
func (ps *panelSink) Flush() error {
	sum := ps.branches[0]
	sum.add(ps.branches[1:]...)
	ps.res = &Result{Panel: sum.panel, Stats: sum.stats}
	return nil
}

// CountryCount is one row of TopKSink's country ranking.
type CountryCount struct {
	// Country is the ISO-style code from internal/geo.
	Country string
	// Attacks is the number of attack flows attributed to the country.
	Attacks int
}

// ProtocolCount is one row of TopKSink's protocol ranking.
type ProtocolCount struct {
	// Proto is the amplification protocol.
	Proto protocols.Protocol
	// Attacks is the number of attack flows over the protocol.
	Attacks int
}

// TopKSink ranks victim countries and amplification protocols by attack
// volume over the whole run — the paper's Table 3 cut, computed online.
// Scans are ignored; a multi-attributed victim credits every candidate
// country, exactly as the weekly country series do.
type TopKSink struct {
	k        int
	branches []*topKBranch

	countries []CountryCount
	protos    []ProtocolCount
}

// NewTopKSink returns a sink keeping the k heaviest countries and
// protocols; k <= 0 means 10.
func NewTopKSink(k int) *TopKSink {
	if k <= 0 {
		k = 10
	}
	return &TopKSink{k: k}
}

// Open allocates one counting branch per shard.
func (s *TopKSink) Open(cfg *Config, shards int) ([]SinkBranch, error) {
	if s.branches != nil {
		return nil, errSinkReused
	}
	s.branches = make([]*topKBranch, shards)
	out := make([]SinkBranch, shards)
	for i := range s.branches {
		s.branches[i] = &topKBranch{
			tbl:        cfg.geo,
			byCountry:  make(map[string]int),
			byProtocol: make(map[protocols.Protocol]int),
		}
		out[i] = s.branches[i]
	}
	return out, nil
}

// Flush merges the shard counts and fixes the rankings.
func (s *TopKSink) Flush() error {
	byCountry := make(map[string]int)
	byProtocol := make(map[protocols.Protocol]int)
	for _, b := range s.branches {
		for c, n := range b.byCountry {
			byCountry[c] += n
		}
		for p, n := range b.byProtocol {
			byProtocol[p] += n
		}
	}
	for c, n := range byCountry {
		s.countries = append(s.countries, CountryCount{Country: c, Attacks: n})
	}
	sort.Slice(s.countries, func(i, j int) bool {
		if s.countries[i].Attacks != s.countries[j].Attacks {
			return s.countries[i].Attacks > s.countries[j].Attacks
		}
		return s.countries[i].Country < s.countries[j].Country
	})
	for p, n := range byProtocol {
		s.protos = append(s.protos, ProtocolCount{Proto: p, Attacks: n})
	}
	sort.Slice(s.protos, func(i, j int) bool {
		if s.protos[i].Attacks != s.protos[j].Attacks {
			return s.protos[i].Attacks > s.protos[j].Attacks
		}
		return s.protos[i].Proto < s.protos[j].Proto
	})
	if len(s.countries) > s.k {
		s.countries = s.countries[:s.k]
	}
	if len(s.protos) > s.k {
		s.protos = s.protos[:s.k]
	}
	return nil
}

// TopCountries returns the k heaviest victim countries, descending by
// attack count with ties broken by code; valid after the run completes.
func (s *TopKSink) TopCountries() []CountryCount { return s.countries }

// TopProtocols returns the k heaviest protocols; valid after the run.
func (s *TopKSink) TopProtocols() []ProtocolCount { return s.protos }

// topKBranch counts attacks per country and protocol for one shard.
type topKBranch struct {
	tbl        *geo.Table
	byCountry  map[string]int
	byProtocol map[protocols.Protocol]int
}

// Consume books one closed flow into the shard-local counts.
func (b *topKBranch) Consume(f *honeypot.Flow, c honeypot.Classification) error {
	if c != honeypot.Attack {
		return nil
	}
	b.byProtocol[f.Key.Proto]++
	if countries, ok := b.tbl.Lookup(f.Key.Victim); ok {
		for _, cc := range countries {
			b.byCountry[cc]++
		}
	}
	return nil
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
