package wire

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/obs/trace"
)

// DefaultDeadAfter is how long a collector waits between a session's
// frames before declaring the sensor dead and reaping the session.
const DefaultDeadAfter = 30 * time.Second

// CollectorConfig configures Listen.
type CollectorConfig struct {
	// Ingest is the pipeline every accepted record is fed to. Required.
	Ingest *ingest.Ingestor

	// Token is the shared secret sensors must present. Empty means
	// unauthenticated (loopback tests); a non-empty token is compared in
	// constant time.
	Token string

	// DeadAfter is the per-frame read deadline: a session that stays
	// silent this long — no batches, no heartbeats — is reaped, its
	// low-watermark source closed, its offset retained for resume.
	// Defaults to DefaultDeadAfter.
	DeadAfter time.Duration

	// Metrics, when non-nil, receives the booters_wire_* families.
	Metrics *obs.Registry

	// Trace, when non-nil, records wire.batch receive spans. Batches
	// whose header carries a sampled sensor-side trace context are
	// recorded as children of it, stitching the cross-process
	// sensor→snapshot chain together; unsampled batches make their own
	// local sampling decision. Nil disables tracing at one pointer test.
	Trace *trace.Tracer

	// Logf, when non-nil, receives one line per session event.
	Logf func(format string, args ...any)
}

// sensorState is what the collector remembers about a sensor across
// sessions: the cumulative acknowledged record offset and the stream
// time already promised to the pipeline. Only the sensor's single
// active session writes it (duplicate sessions are serialised by
// kicking); the fields are atomic so Offsets can read them live.
type sensorState struct {
	offset atomic.Uint64
	mark   atomic.Int64
	// opened is the wall clock (unix nanoseconds) at which the sensor's
	// current session passed handshake; the session-age gauge reads it
	// at scrape time.
	opened atomic.Int64
}

// session is one accepted connection's server half.
type session struct {
	conn net.Conn
	done chan struct{}
	wbuf []byte
}

// Collector accepts sensor sessions on a listener and feeds their
// records to one ingest pipeline. Create with Listen, stop with Close.
type Collector struct {
	cfg CollectorConfig
	ln  net.Listener
	m   *collectorMetrics
	wg  sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	state  map[uint32]*sensorState
	active map[uint32]*session
}

// Listen starts a collector on addr (e.g. "127.0.0.1:0") and serves
// sessions until Close.
func Listen(addr string, cfg CollectorConfig) (*Collector, error) {
	if cfg.Ingest == nil {
		return nil, fmt.Errorf("wire: collector needs an ingest pipeline")
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = DefaultDeadAfter
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	c := &Collector{
		cfg:    cfg,
		ln:     ln,
		m:      newCollectorMetrics(cfg.Metrics),
		conns:  make(map[net.Conn]struct{}),
		state:  make(map[uint32]*sensorState),
		active: make(map[uint32]*session),
	}
	c.wg.Add(1)
	go c.serve()
	return c, nil
}

// Addr returns the listener's bound address, for "127.0.0.1:0" setups.
func (c *Collector) Addr() net.Addr { return c.ln.Addr() }

// Close stops accepting, closes every open session's connection and
// waits for their goroutines to drain. The ingest pipeline is the
// caller's to close; per-sensor offsets survive until the process ends.
func (c *Collector) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	for conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	if !already {
		c.ln.Close()
	}
	c.wg.Wait()
	return nil
}

// Sessions returns the number of sessions currently past handshake.
func (c *Collector) Sessions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.active)
}

// Offsets snapshots the cumulative acknowledged record offset of every
// sensor the collector has ever welcomed.
func (c *Collector) Offsets() map[uint32]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint32]uint64, len(c.state))
	for id, st := range c.state {
		out[id] = st.offset.Load()
	}
	return out
}

// logf forwards to the configured logger, if any.
func (c *Collector) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// serve accepts connections until the listener closes.
func (c *Collector) serve() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conns[conn] = struct{}{}
		c.wg.Add(1)
		c.mu.Unlock()
		go c.handle(conn)
	}
}

// handle runs one connection from handshake to teardown.
func (c *Collector) handle(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	defer func() {
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
	}()

	s := &session{conn: conn, done: make(chan struct{})}
	fr := NewFrameReader(conn)

	// Handshake: the first frame must be a well-formed, authenticated
	// Hello at our protocol version.
	conn.SetReadDeadline(time.Now().Add(c.cfg.DeadAfter))
	t, p, err := fr.Next()
	if err != nil || t != FrameHello {
		c.m.authFailure()
		c.reject(s, CodeBadFrame, "expected hello")
		return
	}
	c.m.frameIn(t, int(fr.Bytes()))
	h, err := DecodeHello(p)
	if err != nil {
		c.m.authFailure()
		c.reject(s, CodeBadFrame, "malformed hello")
		return
	}
	if h.Version != ProtocolVersion {
		c.m.authFailure()
		c.reject(s, CodeVersion, fmt.Sprintf("version %d unsupported, speak %d", h.Version, ProtocolVersion))
		return
	}
	if subtle.ConstantTimeCompare([]byte(c.cfg.Token), h.Token) != 1 {
		c.m.authFailure()
		c.reject(s, CodeAuth, "bad token")
		return
	}

	// One active session per sensor: a newer connection kicks the older
	// one and waits for it to finish unwinding, so sensorState only ever
	// has one writer.
	var st *sensorState
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			c.reject(s, CodeShutdown, "collector closing")
			return
		}
		old := c.active[h.Sensor]
		if old == nil {
			st = c.state[h.Sensor]
			if st == nil {
				st = &sensorState{}
				st.mark.Store(MarkUnset)
				c.state[h.Sensor] = st
			}
			c.active[h.Sensor] = s
			c.mu.Unlock()
			break
		}
		c.mu.Unlock()
		c.logf("wire: sensor %d reconnected, kicking older session", h.Sensor)
		old.conn.Close()
		<-old.done
	}
	defer func() {
		c.mu.Lock()
		if c.active[h.Sensor] == s {
			delete(c.active, h.Sensor)
		}
		c.mu.Unlock()
		close(s.done)
	}()

	resume := st.offset.Load()
	if err := c.write(s, FrameWelcome, AppendWelcome(nil, Welcome{Version: ProtocolVersion, Resume: resume})); err != nil {
		return
	}
	st.opened.Store(time.Now().UnixNano())
	c.m.sessionOpen(resume > 0)
	c.m.sessionGauges(h.Sensor, st)
	c.logf("wire: sensor %d session open at offset %d (resume=%v)", h.Sensor, resume, resume > 0)

	// Each session is one low-watermark source; the stream time already
	// promised by earlier sessions carries over.
	src := c.cfg.Ingest.RegisterSource()
	defer src.Close()
	if m := st.mark.Load(); m != MarkUnset {
		src.Advance(time.Unix(0, m).UTC())
	}

	reaped := false
	defer func() { c.m.sessionClose(reaped) }()

	for {
		conn.SetReadDeadline(time.Now().Add(c.cfg.DeadAfter))
		before := fr.Bytes()
		t, p, err := fr.Next()
		if err != nil {
			var nerr net.Error
			switch {
			case errors.As(err, &nerr) && nerr.Timeout():
				reaped = true
				c.logf("wire: sensor %d silent for %v, reaping session at offset %d", h.Sensor, c.cfg.DeadAfter, st.offset.Load())
			case errors.Is(err, ErrProtocol):
				c.reject(s, CodeBadFrame, err.Error())
			case err == io.EOF:
				c.logf("wire: sensor %d hung up at offset %d", h.Sensor, st.offset.Load())
			}
			return
		}
		c.m.frameIn(t, int(fr.Bytes()-before))

		switch t {
		case FrameBatch:
			ok, err := c.ingestBatch(s, src, st, h.Sensor, p)
			if err != nil || !ok {
				return
			}
		case FrameHeartbeat:
			hb, err := DecodeHeartbeat(p)
			if err != nil {
				c.reject(s, CodeBadFrame, err.Error())
				return
			}
			if hb.Mark != MarkUnset && hb.Mark > st.mark.Load() {
				st.mark.Store(hb.Mark)
				src.Advance(time.Unix(0, hb.Mark).UTC())
			}
			if err := c.write(s, FrameAck, AppendAck(nil, Ack{Offset: st.offset.Load()})); err != nil {
				return
			}
		case FrameGoodbye:
			g, err := DecodeGoodbye(p)
			if err != nil {
				c.reject(s, CodeBadFrame, err.Error())
				return
			}
			final := st.offset.Load()
			if g.Final != final {
				c.logf("wire: sensor %d goodbye at %d but acknowledged offset is %d", h.Sensor, g.Final, final)
			}
			c.write(s, FrameAck, AppendAck(nil, Ack{Offset: final}))
			c.logf("wire: sensor %d finished cleanly at offset %d", h.Sensor, final)
			return
		default:
			c.reject(s, CodeBadFrame, fmt.Sprintf("unexpected %v frame", t))
			return
		}
	}
}

// ingestBatch feeds one batch frame to the pipeline: overlap below the
// acknowledged offset is skipped (redelivery after a torn connection),
// a base beyond it is a gap the protocol forbids, and everything fresh
// is ingested before the offset advances and the ack goes out — the ack
// is the promise that these records are never needed again. Returns
// ok=false when the session must end.
func (c *Collector) ingestBatch(s *session, src *ingest.Source, st *sensorState, sensor uint32, p []byte) (bool, error) {
	h, rest, err := DecodeBatchHeader(p, ProtocolVersion)
	if err != nil {
		c.reject(s, CodeBadFrame, err.Error())
		return false, nil
	}
	// Receive span: a child of the sensor's batch span when the
	// header carries a sampled context, else a local sampling decision.
	// SetTraceParent before the records go in so the shard flushes this
	// batch causes are parented under the receive span.
	var wtc trace.Context
	var recvStart int64
	if tr := c.cfg.Trace; tr != nil {
		if h.TraceID != 0 {
			wtc = tr.Child(trace.Context{Trace: h.TraceID, Span: h.SpanID})
		} else {
			wtc = tr.Root()
		}
		if wtc.Sampled() {
			recvStart = time.Now().UnixNano()
			c.cfg.Ingest.SetTraceParent(wtc)
		}
	}
	offset := st.offset.Load()
	if h.Base > offset {
		c.reject(s, CodeGap, fmt.Sprintf("batch base %d but acknowledged offset is %d", h.Base, offset))
		return false, nil
	}
	skip := offset - h.Base
	maxT := int64(MarkUnset)
	err = DecodeBatchRecords(h, rest, func(i uint32, d ingest.Datagram) error {
		if uint64(i) < skip {
			return nil
		}
		if n := d.Time.UnixNano(); n > maxT {
			maxT = n
		}
		if err := c.cfg.Ingest.IngestDatagram(d); err != nil {
			if errors.Is(err, ingest.ErrClosed) {
				return err
			}
			// Undecodable datagrams (unknown port, malformed payload) are
			// counted by the pipeline's own stats and dropped, exactly as
			// they would be on a local replay.
		}
		return nil
	})
	switch {
	case err == nil:
	case errors.Is(err, ingest.ErrClosed):
		c.reject(s, CodeShutdown, "pipeline closed")
		return false, nil
	default:
		c.reject(s, CodeBadFrame, err.Error())
		return false, nil
	}
	var fresh, dup uint64
	if total := uint64(h.Count); total > skip {
		fresh, dup = total-skip, skip
		offset = h.Base + total
		st.offset.Store(offset)
	} else {
		fresh, dup = 0, total
	}
	if maxT != int64(MarkUnset) && maxT > st.mark.Load() {
		st.mark.Store(maxT)
		src.Advance(time.Unix(0, maxT).UTC())
	}
	if wtc.Sampled() {
		now := time.Now().UnixNano()
		c.cfg.Trace.Record(trace.NameWireBatch, int(sensor), wtc, h.SpanID, recvStart, now-recvStart, uint64(h.Count))
	}
	if h.SendUnixNanos > 0 {
		c.m.freshness(time.Duration(time.Now().UnixNano() - h.SendUnixNanos))
	}
	c.m.batch(sensor, fresh, dup, offset)
	if err := c.write(s, FrameAck, AppendAck(nil, Ack{Offset: offset})); err != nil {
		return false, err
	}
	return true, nil
}

// write frames and sends one payload on a session, under a write
// deadline so a peer that stopped reading cannot park the session
// goroutine forever.
func (c *Collector) write(s *session, t FrameType, payload []byte) error {
	b, err := AppendFrame(s.wbuf[:0], t, payload)
	if err != nil {
		return err
	}
	s.wbuf = b[:0]
	s.conn.SetWriteDeadline(time.Now().Add(c.cfg.DeadAfter))
	if _, err := s.conn.Write(b); err != nil {
		return err
	}
	c.m.frameOut(t, len(b))
	return nil
}

// reject sends a terminal Reject frame; the session ends either way.
func (c *Collector) reject(s *session, code uint16, msg string) {
	c.write(s, FrameReject, AppendReject(nil, Reject{Code: code, Msg: msg}))
}
