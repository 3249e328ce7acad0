package wire

import (
	"errors"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/spool"
	"booters/internal/timeseries"
)

// rawClient drives the protocol frame by frame, for tests that need to
// misbehave in ways Ship never would.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	fr   *FrameReader
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{t: t, conn: conn, fr: NewFrameReader(conn)}
}

func (c *rawClient) send(ft FrameType, payload []byte) {
	c.t.Helper()
	b, err := AppendFrame(nil, ft, payload)
	if err != nil {
		c.t.Fatal(err)
	}
	if _, err := c.conn.Write(b); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawClient) recv() (FrameType, []byte, error) {
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	return c.fr.Next()
}

// hello performs the client half of the handshake and returns the
// Welcome, failing the test on a reject.
func (c *rawClient) hello(sensor uint32, token string) Welcome {
	c.t.Helper()
	hb, err := AppendHello(nil, Hello{Version: ProtocolVersion, Sensor: sensor, Token: []byte(token)})
	if err != nil {
		c.t.Fatal(err)
	}
	c.send(FrameHello, hb)
	ft, p, err := c.recv()
	if err != nil {
		c.t.Fatal(err)
	}
	if ft != FrameWelcome {
		c.t.Fatalf("handshake answered with %v", ft)
	}
	w, err := DecodeWelcome(p)
	if err != nil {
		c.t.Fatal(err)
	}
	return w
}

// expectReject reads one frame and asserts it is a Reject with code.
func (c *rawClient) expectReject(code uint16) {
	c.t.Helper()
	ft, p, err := c.recv()
	if err != nil {
		c.t.Fatalf("expected reject %s, read failed: %v", codeName(code), err)
	}
	if ft != FrameReject {
		c.t.Fatalf("expected reject, got %v", ft)
	}
	r, err := DecodeReject(p)
	if err != nil {
		c.t.Fatal(err)
	}
	if r.Code != code {
		c.t.Fatalf("reject code %s, want %s (%s)", codeName(r.Code), codeName(code), r.Msg)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// newTestCollector builds an unordered single-shard pipeline and a
// collector on loopback, cleaned up with the test.
func newTestCollector(t *testing.T, cc CollectorConfig) (*ingest.Ingestor, *Collector) {
	t.Helper()
	cfg := testCfg(1, 2, true)
	cfg.Metrics = cc.Metrics
	in, err := ingest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc.Ingest = in
	col, err := Listen("127.0.0.1:0", cc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		col.Close()
		in.Close()
	})
	return in, col
}

func TestHandshakeRejectsBadToken(t *testing.T) {
	reg := obs.NewRegistry()
	_, col := newTestCollector(t, CollectorConfig{Token: "right", Metrics: reg})

	rep, err := Ship(SensorConfig{
		Addr:   col.Addr().String(),
		Sensor: 1,
		Token:  "wrong",
		Feed:   NewSliceFeed(nil),
	})
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Code != CodeAuth {
		t.Fatalf("err = %v, want CodeAuth reject", err)
	}
	if rep.Dials != 1 {
		t.Fatalf("made %d dials for a permanent reject, want 1", rep.Dials)
	}
	if n, _ := reg.Sum("booters_wire_auth_failures_total"); n != 1 {
		t.Fatalf("auth_failures_total = %v, want 1", n)
	}
}

func TestHandshakeRejectsVersionAndGarbage(t *testing.T) {
	_, col := newTestCollector(t, CollectorConfig{Token: "tok"})

	c := dialRaw(t, col.Addr().String())
	hb, err := AppendHello(nil, Hello{Version: 99, Sensor: 1, Token: []byte("tok")})
	if err != nil {
		t.Fatal(err)
	}
	c.send(FrameHello, hb)
	c.expectReject(CodeVersion)

	// A first frame that is not a Hello at all.
	c2 := dialRaw(t, col.Addr().String())
	c2.send(FrameAck, AppendAck(nil, Ack{Offset: 1}))
	c2.expectReject(CodeBadFrame)
}

func TestBatchGapRejected(t *testing.T) {
	_, col := newTestCollector(t, CollectorConfig{Token: "tok"})
	c := dialRaw(t, col.Addr().String())
	w := c.hello(3, "tok")
	if w.Resume != 0 {
		t.Fatalf("fresh sensor welcomed at %d", w.Resume)
	}
	// A batch whose base skips past the acknowledged offset loses data
	// the collector never saw; the protocol refuses it outright.
	c.send(FrameBatch, AppendBatchHeader(nil, BatchHeader{Base: 5, Count: 0}, ProtocolVersion))
	c.expectReject(CodeGap)
}

func TestVersionNegotiation(t *testing.T) {
	_, col := newTestCollector(t, CollectorConfig{Token: "tok"})

	// Any version other than ProtocolVersion is rejected permanently:
	// the retired v1 as much as a future one.
	for i, v := range []uint16{1, ProtocolVersion + 1} {
		c := dialRaw(t, col.Addr().String())
		hb, err := AppendHello(nil, Hello{Version: v, Sensor: uint32(4 + i), Token: []byte("tok")})
		if err != nil {
			t.Fatal(err)
		}
		c.send(FrameHello, hb)
		c.expectReject(CodeVersion)
	}
}

func TestDuplicateSensorKicksOlderSession(t *testing.T) {
	_, col := newTestCollector(t, CollectorConfig{Token: "tok"})

	a := dialRaw(t, col.Addr().String())
	a.hello(9, "tok")
	waitFor(t, "first session", func() bool { return col.Sessions() == 1 })

	b := dialRaw(t, col.Addr().String())
	b.hello(9, "tok") // blocks until the collector has kicked a

	if _, _, err := a.recv(); err == nil {
		t.Fatal("kicked session still readable")
	}
	if n := col.Sessions(); n != 1 {
		t.Fatalf("%d sessions after kick, want 1", n)
	}
}

// TestReaperClosesSourceAndFreesWatermark is the dead-sensor story: a
// session that goes silent past the deadline is reaped, its ingest
// source closes, and the pipeline's low-watermark — which the silent
// sensor was holding back — jumps to the next constraint.
func TestReaperClosesSourceAndFreesWatermark(t *testing.T) {
	reg := obs.NewRegistry()
	in, col := newTestCollector(t, CollectorConfig{
		Token:     "tok",
		DeadAfter: 150 * time.Millisecond,
		Metrics:   reg,
	})

	// A second, healthy source far ahead in stream time: the low
	// watermark is pinned by whichever source lags.
	high := testStart.Add(10 * 24 * time.Hour)
	other := in.RegisterSource()
	other.Advance(high)
	defer other.Close()

	c := dialRaw(t, col.Addr().String())
	c.hello(5, "tok")

	// A heartbeat with an early stream-time promise drags the low
	// watermark down to this session.
	early := testStart.Add(24 * time.Hour)
	c.send(FrameHeartbeat, AppendHeartbeat(nil, Heartbeat{Mark: early.UnixNano()}))
	if ft, _, err := c.recv(); err != nil || ft != FrameAck {
		t.Fatalf("heartbeat answered with %v, %v", ft, err)
	}
	lowGauge := func() float64 {
		v, _ := reg.Sum("booters_ingest_watermark_low_seconds")
		return v
	}
	waitFor(t, "watermark at silent sensor", func() bool { return lowGauge() == float64(early.Unix()) })

	// Silence. The reaper must close the session and its source so the
	// healthy source's promise becomes the low watermark again.
	waitFor(t, "session reaped", func() bool { return col.Sessions() == 0 })
	waitFor(t, "watermark freed", func() bool { return lowGauge() == float64(high.Unix()) })
	if n, _ := reg.Sum("booters_wire_sessions_reaped_total"); n != 1 {
		t.Fatalf("sessions_reaped_total = %v, want 1", n)
	}
	// The offset survives the reap for a later resume.
	if off := col.Offsets()[5]; off != 0 {
		t.Fatalf("offset %d after reap, want 0", off)
	}
}

// TestHeartbeatKeepsIdleSessionAlive lingers a sensor well past the
// collector's dead-session deadline with nothing to ship; heartbeats
// alone must keep it open.
func TestHeartbeatKeepsIdleSessionAlive(t *testing.T) {
	reg := obs.NewRegistry()
	_, col := newTestCollector(t, CollectorConfig{
		Token:     "tok",
		DeadAfter: 200 * time.Millisecond,
		Metrics:   reg,
	})
	recs := ingest.Datagrams(testPackets(t, 1, 10))
	rep, err := Ship(SensorConfig{
		Addr:      col.Addr().String(),
		Sensor:    6,
		Token:     "tok",
		Feed:      NewSliceFeed(recs),
		Heartbeat: 50 * time.Millisecond,
		Linger:    700 * time.Millisecond,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acked != uint64(len(recs)) {
		t.Fatalf("acked %d of %d", rep.Acked, len(recs))
	}
	if rep.Dials != 1 {
		t.Fatalf("%d dials, want 1 (session must not be reaped mid-linger)", rep.Dials)
	}
	if n, _ := reg.Sum("booters_wire_sessions_reaped_total"); n != 0 {
		t.Fatalf("sessions_reaped_total = %v, want 0", n)
	}
	if hb := sampleValue(reg, `booters_wire_frames_total{dir="in",type="heartbeat"}`); hb < 1 {
		t.Fatalf("heartbeat frames = %v, want >= 1", hb)
	}
}

// sampleValue reads one sample from the registry's text exposition by
// its full name{labels} prefix, 0 if absent.
func sampleValue(reg *obs.Registry, prefix string) float64 {
	for _, line := range strings.Split(string(reg.AppendText(nil)), "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(prefix)+1:]), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// TestHeartbeatMarksSealQuietSensor is the quiet-sensor story on a
// rolling pipeline whose packet-count broadcast never fires: a sensor
// ships records in week 0, then only heartbeats. A heartbeat mark past
// week 0's seal point (its end plus one quiet gap) must seal the week
// while the session is still open, without more packets or Close.
func TestHeartbeatMarksSealQuietSensor(t *testing.T) {
	cfg := testCfg(1, 2, true)
	cfg.Rolling = true
	cfg.WatermarkEvery = 1 << 30
	in, err := ingest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col, err := Listen("127.0.0.1:0", CollectorConfig{Ingest: in, Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		col.Close()
		in.Close()
	})

	week0 := timeseries.WeekOf(testStart)
	var recs []ingest.Datagram
	for _, d := range ingest.Datagrams(testPackets(t, 1, 10)) {
		if d.Time.Before(week0.Start.AddDate(0, 0, 6)) && len(recs) < 200 {
			recs = append(recs, d)
		}
	}
	if len(recs) == 0 {
		t.Fatal("no week-0 records")
	}
	c := dialRaw(t, col.Addr().String())
	c.hello(11, "tok")
	batch := AppendBatchHeader(nil, BatchHeader{Count: uint32(len(recs))}, ProtocolVersion)
	for _, d := range recs {
		if batch, err = spool.AppendRecord(batch, d); err != nil {
			t.Fatal(err)
		}
	}
	c.send(FrameBatch, batch)
	if ft, _, err := c.recv(); err != nil || ft != FrameAck {
		t.Fatalf("batch answered with %v, %v", ft, err)
	}

	sealAt := week0.Next().Start.Add(honeypot.FlowGap)
	for _, mark := range []time.Time{sealAt.Add(-time.Minute), sealAt.Add(time.Minute)} {
		c.send(FrameHeartbeat, AppendHeartbeat(nil, Heartbeat{Mark: mark.UnixNano()}))
		if ft, _, err := c.recv(); err != nil || ft != FrameAck {
			t.Fatalf("heartbeat answered with %v, %v", ft, err)
		}
	}
	waitFor(t, "week 0 sealed by heartbeat marks", func() bool {
		s := in.Snapshot()
		return s.Sealed && !s.Final && !s.Through.Before(week0)
	})

	c.send(FrameGoodbye, AppendGoodbye(nil, Goodbye{Final: uint64(len(recs))}))
	if ft, _, err := c.recv(); err != nil || ft != FrameAck {
		t.Fatalf("goodbye answered with %v, %v", ft, err)
	}
}
