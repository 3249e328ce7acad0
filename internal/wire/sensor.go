package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/obs/trace"
	"booters/internal/spool"
)

// Feed is the record stream a sensor ships: seekable by cumulative
// record offset so a session can resume exactly where the collector's
// last ack left off. Next returns io.EOF at the current end of the
// stream; Offset is the cumulative offset of the record Next would
// return. Records must come out in non-decreasing time order — the
// collector turns each batch's max timestamp into a low-watermark
// promise for the whole session.
type Feed interface {
	// Seek positions the feed at a cumulative record offset.
	Seek(offset uint64) error
	// Next returns the record at the current offset, or io.EOF.
	Next() (ingest.Datagram, error)
	// Offset is the cumulative offset of the record Next would return.
	Offset() uint64
}

// SliceFeed serves an in-memory record slice — synthetic streams and
// tests.
type SliceFeed struct {
	recs []ingest.Datagram
	off  uint64
}

// NewSliceFeed wraps recs as a Feed starting at offset 0.
func NewSliceFeed(recs []ingest.Datagram) *SliceFeed {
	return &SliceFeed{recs: recs}
}

// Seek positions the feed at a cumulative offset.
func (f *SliceFeed) Seek(offset uint64) error {
	if offset > uint64(len(f.recs)) {
		return fmt.Errorf("wire: seek to %d beyond feed end %d", offset, len(f.recs))
	}
	f.off = offset
	return nil
}

// Next returns the record at the current offset, or io.EOF.
func (f *SliceFeed) Next() (ingest.Datagram, error) {
	if f.off >= uint64(len(f.recs)) {
		return ingest.Datagram{}, io.EOF
	}
	d := f.recs[f.off]
	f.off++
	return d, nil
}

// Offset returns the cumulative offset of the next record.
func (f *SliceFeed) Offset() uint64 { return f.off }

// SpoolFeed serves a recorded spool directory, seeking through the
// segment index via spool.OpenAt so a resume skips what it can without
// decoding it.
type SpoolFeed struct {
	dir string
	r   *spool.Reader
}

// NewSpoolFeed wraps a spool directory as a Feed. The directory is not
// opened until the first Seek (the session handshake supplies the
// offset).
func NewSpoolFeed(dir string) *SpoolFeed {
	return &SpoolFeed{dir: dir}
}

// Seek re-opens the spool positioned at a cumulative record offset.
func (f *SpoolFeed) Seek(offset uint64) error {
	if f.r != nil {
		f.r.Close()
		f.r = nil
	}
	r, err := spool.OpenAt(f.dir, offset)
	if err != nil {
		return err
	}
	f.r = r
	return nil
}

// Next returns the next spooled record, or io.EOF at the spool's end.
func (f *SpoolFeed) Next() (ingest.Datagram, error) {
	if f.r == nil {
		if err := f.Seek(0); err != nil {
			return ingest.Datagram{}, err
		}
	}
	return f.r.Next()
}

// Offset returns the cumulative offset of the next record.
func (f *SpoolFeed) Offset() uint64 {
	if f.r == nil {
		return 0
	}
	return f.r.Offset()
}

// Close releases the underlying spool reader.
func (f *SpoolFeed) Close() error {
	if f.r == nil {
		return nil
	}
	err := f.r.Close()
	f.r = nil
	return err
}

// Sensor-side defaults.
const (
	DefaultBatchRecords = 256
	DefaultHeartbeat    = 5 * time.Second
	DefaultBackoff      = 100 * time.Millisecond
	DefaultMaxBackoff   = 5 * time.Second
	DefaultMaxAttempts  = 8
)

// SensorConfig configures Ship.
type SensorConfig struct {
	// Addr is the collector's address, for the default dialer.
	Addr string

	// Sensor is this sensor's ID; the collector keys resume offsets and
	// duplicate-session kicking by it.
	Sensor uint32

	// Token is the shared secret presented in the handshake.
	Token string

	// Feed is the record stream to ship. Required.
	Feed Feed

	// BatchRecords caps records per batch frame. Defaults to
	// DefaultBatchRecords; the frame payload cap bounds large payloads
	// further.
	BatchRecords int

	// Heartbeat is the idle interval after which the sensor sends a
	// heartbeat frame so the collector's dead-session deadline never
	// fires on a merely quiet stream. Defaults to DefaultHeartbeat; keep
	// it well under the collector's DeadAfter.
	Heartbeat time.Duration

	// Linger, when positive, turns Ship into a live tail: at the feed's
	// end it idles — heartbeating, re-polling the feed, shipping
	// whatever appears — and only says goodbye once the feed has stayed
	// dry for Linger. Zero finishes at the first end-of-feed.
	Linger time.Duration

	// Backoff and MaxBackoff shape the reconnect schedule: Backoff
	// doubles per failed attempt up to MaxBackoff, and resets whenever a
	// session makes progress (the acked offset advanced).
	Backoff time.Duration
	// MaxBackoff caps the doubling reconnect delay.
	MaxBackoff time.Duration

	// MaxAttempts is the number of consecutive no-progress attempts
	// before Ship gives up. Defaults to DefaultMaxAttempts.
	MaxAttempts int

	// Dial overrides the transport, for tests that inject failing or
	// flaky connections. Defaults to TCP to Addr.
	Dial func() (net.Conn, error)

	// Metrics, when non-nil, receives the booters_wire_sensor_* families.
	Metrics *obs.Registry

	// Trace, when non-nil, samples sensor.batch spans — the roots of
	// cross-process traces. The sampled context rides in the batch
	// header so the collector can parent its receive span under it. Nil
	// disables tracing at one pointer test.
	Trace *trace.Tracer

	// Logf, when non-nil, receives one line per connection event.
	Logf func(format string, args ...any)
}

// ShipReport summarises one Ship call.
type ShipReport struct {
	Records uint64 // records sent, counting any resent after a reconnect
	Batches uint64 // batch frames sent
	Bytes   uint64 // frame bytes written
	Dials   int    // connection attempts
	Resumes int    // reconnects that resumed a partially shipped stream
	Acked   uint64 // the collector's final acknowledged offset
}

// errFeed marks a local feed failure; redialing cannot fix it.
var errFeed = errors.New("wire: feed failed")

// Ship streams everything cfg.Feed holds to the collector and returns
// once the collector has acknowledged the stream's final offset.
// Connection loss redials with exponential backoff and resumes from the
// collector's last ack — the collector's offset dedup makes redelivery
// harmless, so Ship never loses or duplicates a record. A permanent
// reject (auth, version) or a feed failure returns immediately;
// MaxAttempts consecutive attempts without progress give up with the
// last error.
func Ship(cfg SensorConfig) (ShipReport, error) {
	var rep ShipReport
	if cfg.Feed == nil {
		return rep, fmt.Errorf("wire: sensor needs a feed")
	}
	if cfg.BatchRecords <= 0 {
		cfg.BatchRecords = DefaultBatchRecords
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultBackoff
	}
	if cfg.MaxBackoff < cfg.Backoff {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	dial := cfg.Dial
	if dial == nil {
		dial = func() (net.Conn, error) { return net.DialTimeout("tcp", cfg.Addr, 10*time.Second) }
	}
	m := newSensorMetrics(cfg.Metrics, cfg.Sensor)

	attempts := 0
	backoff := cfg.Backoff
	for {
		m.dial()
		rep.Dials++
		conn, err := dial()
		if err == nil {
			var progress bool
			progress, err = shipSession(&cfg, conn, &rep, m)
			if err == nil {
				return rep, nil
			}
			var rej *RejectError
			if errors.As(err, &rej) && rej.Permanent() {
				return rep, err
			}
			if errors.Is(err, errFeed) {
				return rep, err
			}
			if progress {
				attempts, backoff = 0, cfg.Backoff
			}
		}
		attempts++
		if attempts >= cfg.MaxAttempts {
			return rep, fmt.Errorf("wire: giving up after %d attempts without progress: %w", attempts, err)
		}
		if cfg.Logf != nil {
			cfg.Logf("wire: sensor %d: %v; redialing in %v", cfg.Sensor, err, backoff)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > cfg.MaxBackoff {
			backoff = cfg.MaxBackoff
		}
	}
}

// shipSession runs one connection: handshake, seek, ship, goodbye.
// progress reports whether the collector acknowledged anything new, so
// the caller can reset its give-up counter.
func shipSession(cfg *SensorConfig, conn net.Conn, rep *ShipReport, m *sensorMetrics) (progress bool, err error) {
	defer conn.Close()
	fr := NewFrameReader(conn)
	var fbuf, payload []byte
	write := func(t FrameType, p []byte) error {
		b, err := AppendFrame(fbuf[:0], t, p)
		if err != nil {
			return err
		}
		fbuf = b[:0]
		n, err := conn.Write(b)
		rep.Bytes += uint64(n)
		m.sentBytes(n)
		return err
	}

	// Handshake: Hello out, Welcome (or Reject) back under a deadline.
	hello, err := AppendHello(nil, Hello{Version: ProtocolVersion, Sensor: cfg.Sensor, Token: []byte(cfg.Token)})
	if err != nil {
		return false, err
	}
	if err := write(FrameHello, hello); err != nil {
		return false, err
	}
	conn.SetReadDeadline(time.Now().Add(3 * cfg.Heartbeat))
	t, p, err := fr.Next()
	if err != nil {
		return false, fmt.Errorf("wire: handshake: %w", err)
	}
	switch t {
	case FrameWelcome:
	case FrameReject:
		r, derr := DecodeReject(p)
		if derr != nil {
			return false, derr
		}
		return false, &RejectError{Code: r.Code, Msg: r.Msg}
	default:
		return false, fmt.Errorf("%w: expected welcome, got %v", ErrProtocol, t)
	}
	w, err := DecodeWelcome(p)
	if err != nil {
		return false, err
	}
	if w.Version != ProtocolVersion {
		return false, &RejectError{Code: CodeVersion, Msg: fmt.Sprintf("collector speaks version %d", w.Version)}
	}
	resume := w.Resume
	if rep.Batches > 0 && resume > 0 {
		rep.Resumes++
		m.resume()
	}
	if err := cfg.Feed.Seek(resume); err != nil {
		return false, fmt.Errorf("%w: seek to %d: %v", errFeed, resume, err)
	}
	if cfg.Logf != nil {
		cfg.Logf("wire: sensor %d connected, resuming at offset %d", cfg.Sensor, resume)
	}
	conn.SetReadDeadline(time.Time{})

	// Acks arrive asynchronously — under backpressure the collector may
	// lag many batches behind — so a dedicated reader tracks the
	// cumulative acked offset while the main loop keeps writing. The
	// reader owns all reads from here on; the main loop owns all writes.
	var acked atomic.Uint64
	var rejected atomic.Pointer[RejectError]
	acked.Store(resume)
	ackTick := make(chan struct{}, 1)
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			before := fr.Bytes()
			t, p, err := fr.Next()
			if err != nil {
				conn.Close()
				return
			}
			switch t {
			case FrameAck:
				a, err := DecodeAck(p)
				if err != nil {
					conn.Close()
					return
				}
				m.ack(a.Offset, int(fr.Bytes()-before))
				if a.Offset > acked.Load() {
					acked.Store(a.Offset)
				}
				select {
				case ackTick <- struct{}{}:
				default:
				}
			case FrameReject:
				if r, derr := DecodeReject(p); derr == nil {
					rejected.Store(&RejectError{Code: r.Code, Msg: r.Msg})
				}
				conn.Close()
				return
			default:
				conn.Close()
				return
			}
		}
	}()
	fail := func(err error) (bool, error) {
		conn.Close()
		<-ackDone
		if rej := rejected.Load(); rej != nil {
			err = rej
		}
		return acked.Load() > resume, err
	}

	// Ship batches until the feed runs dry (or, with Linger, stays dry).
	// The size cap leaves room for one worst-case record, so a batch can
	// never outgrow the frame payload cap.
	const sizeCap = MaxBatchPayload - (spool.RecordHeaderSize + spool.MaxRecordPayload)
	lastMark := int64(MarkUnset)
	lastSent := time.Now()
	var idleSince time.Time
	idleNap := cfg.Heartbeat / 4
	if idleNap > 250*time.Millisecond {
		idleNap = 250 * time.Millisecond
	} else if idleNap < time.Millisecond {
		idleNap = time.Millisecond
	}
	for {
		// One sampling decision per batch: the sampled context becomes
		// the trace root and rides in the header so the collector's
		// receive span is its child.
		btc := cfg.Trace.Root()
		buildStart := int64(0)
		if btc.Sampled() {
			buildStart = time.Now().UnixNano()
		}
		payload = AppendBatchHeader(payload[:0], BatchHeader{
			Base:    cfg.Feed.Offset(),
			TraceID: btc.Trace,
			SpanID:  btc.Span,
		}, ProtocolVersion)
		count := uint32(0)
		var ferr error
		for int(count) < cfg.BatchRecords && len(payload) < sizeCap {
			d, err := cfg.Feed.Next()
			if err != nil {
				ferr = err
				break
			}
			if payload, err = spool.AppendRecord(payload, d); err != nil {
				return fail(fmt.Errorf("%w: %v", errFeed, err))
			}
			if n := d.Time.UnixNano(); n > lastMark {
				lastMark = n
			}
			count++
		}
		if ferr != nil && ferr != io.EOF {
			return fail(fmt.Errorf("%w: %v", errFeed, ferr))
		}
		if count > 0 {
			binary.BigEndian.PutUint32(payload[8:12], count)
			// Stamp the send time as late as possible — it is the
			// start of the wire-send→ingest-apply freshness clock.
			binary.BigEndian.PutUint64(payload[28:36], uint64(time.Now().UnixNano()))
			if err := write(FrameBatch, payload); err != nil {
				return fail(err)
			}
			if btc.Sampled() {
				cfg.Trace.Record(trace.NameSensorBatch, int(cfg.Sensor), btc, 0,
					buildStart, time.Now().UnixNano()-buildStart, uint64(count))
			}
			rep.Batches++
			rep.Records += uint64(count)
			m.sent(int(count))
			lastSent = time.Now()
			idleSince = time.Time{}
		}
		if ferr != io.EOF {
			continue
		}
		if cfg.Linger <= 0 {
			break
		}
		if idleSince.IsZero() {
			idleSince = time.Now()
		} else if time.Since(idleSince) >= cfg.Linger {
			break
		}
		if time.Since(lastSent) >= cfg.Heartbeat {
			if err := write(FrameHeartbeat, AppendHeartbeat(nil, Heartbeat{Mark: lastMark})); err != nil {
				return fail(err)
			}
			lastSent = time.Now()
		}
		time.Sleep(idleNap)
	}

	// Goodbye: wait for the collector to work through everything sent
	// and acknowledge the final offset. Each ack restarts the patience
	// clock — under backpressure the collector is slow, not gone.
	final := cfg.Feed.Offset()
	if err := write(FrameGoodbye, AppendGoodbye(nil, Goodbye{Final: final})); err != nil {
		return fail(err)
	}
	patience := 3 * cfg.Heartbeat
	deadline := time.NewTimer(patience)
	defer deadline.Stop()
	for acked.Load() < final {
		select {
		case <-ackTick:
			if !deadline.Stop() {
				select {
				case <-deadline.C:
				default:
				}
			}
			deadline.Reset(patience)
		case <-ackDone:
			if rej := rejected.Load(); rej != nil {
				return acked.Load() > resume, rej
			}
			return acked.Load() > resume, fmt.Errorf("wire: connection lost awaiting final ack at %d (acked %d)", final, acked.Load())
		case <-deadline.C:
			return fail(fmt.Errorf("wire: no final ack at %d within %v (acked %d)", final, patience, acked.Load()))
		}
	}
	rep.Acked = acked.Load()
	conn.Close()
	<-ackDone
	if cfg.Logf != nil {
		cfg.Logf("wire: sensor %d finished at offset %d (%d batches)", cfg.Sensor, final, rep.Batches)
	}
	return rep.Acked > resume, nil
}
