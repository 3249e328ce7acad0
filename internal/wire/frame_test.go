package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"booters/internal/ingest"
	"booters/internal/spool"
)

// samplePayload builds a deterministic payload of n bytes.
func samplePayload(n int) []byte {
	rng := rand.New(rand.NewSource(int64(n) + 1))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	var want []struct {
		t FrameType
		p []byte
	}
	for i, ft := range frameTypes {
		p := samplePayload(1 + i*37)
		b, err := AppendFrame(stream, ft, p)
		if err != nil {
			t.Fatal(err)
		}
		stream = b
		want = append(want, struct {
			t FrameType
			p []byte
		}{ft, p})
	}
	fr := NewFrameReader(bytes.NewReader(stream))
	for i, w := range want {
		ft, p, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ft != w.t || !bytes.Equal(p, w.p) {
			t.Fatalf("frame %d: got %v/%d bytes, want %v/%d", i, ft, len(p), w.t, len(w.p))
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
	if fr.Bytes() != uint64(len(stream)) {
		t.Fatalf("Bytes() = %d, stream is %d", fr.Bytes(), len(stream))
	}
}

func TestFrameTruncation(t *testing.T) {
	frame, err := AppendFrame(nil, FrameHello, samplePayload(40))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(frame); cut++ {
		fr := NewFrameReader(bytes.NewReader(frame[:cut]))
		if _, _, err := fr.Next(); !errors.Is(err, ErrProtocol) {
			t.Fatalf("cut at %d: %v, want ErrProtocol", cut, err)
		}
	}
	// Zero bytes is a clean stream end, not corruption.
	fr := NewFrameReader(bytes.NewReader(nil))
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

// TestFrameBitFlips flips every header byte except the type byte (a
// type flip can land on another valid type, which framing alone cannot
// catch) and every payload byte, expecting an error each time — never a
// panic, never a silently wrong payload.
func TestFrameBitFlips(t *testing.T) {
	frame, err := AppendFrame(nil, FrameAck, samplePayload(64))
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		if i == 4 {
			continue // the type byte
		}
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		fr := NewFrameReader(bytes.NewReader(mut))
		if _, _, err := fr.Next(); err == nil {
			t.Fatalf("flip at byte %d decoded cleanly", i)
		}
	}
}

func TestFrameHostileLength(t *testing.T) {
	// A declared length past the type's cap must fail before any
	// payload-sized allocation.
	for _, tc := range []struct {
		t    FrameType
		plen uint32
	}{
		{FrameHello, MaxControlPayload + 1},
		{FrameBatch, MaxBatchPayload + 1},
		{FrameBatch, 0xFFFFFFFF},
	} {
		var hdr [FrameHeaderSize]byte
		binary.BigEndian.PutUint32(hdr[0:4], tc.plen)
		hdr[4] = uint8(tc.t)
		fr := NewFrameReader(bytes.NewReader(hdr[:]))
		if _, _, err := fr.Next(); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%v len %d: %v, want ErrProtocol", tc.t, tc.plen, err)
		}
	}
	// Unknown type, same story.
	var hdr [FrameHeaderSize]byte
	hdr[4] = 200
	fr := NewFrameReader(bytes.NewReader(hdr[:]))
	if _, _, err := fr.Next(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("unknown type: %v, want ErrProtocol", err)
	}
}

func TestAppendFrameRefusesOversize(t *testing.T) {
	if _, err := AppendFrame(nil, FrameAck, samplePayload(MaxControlPayload+1)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversize control: %v", err)
	}
	if _, err := AppendFrame(nil, FrameType(99), nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("unknown type: %v", err)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	h := Hello{Version: ProtocolVersion, Sensor: 77, Token: []byte("tok-123")}
	hb, err := AppendHello(nil, h)
	if err != nil {
		t.Fatal(err)
	}
	gotH, err := DecodeHello(hb)
	if err != nil {
		t.Fatal(err)
	}
	if gotH.Version != h.Version || gotH.Sensor != h.Sensor || !bytes.Equal(gotH.Token, h.Token) {
		t.Fatalf("hello: got %+v want %+v", gotH, h)
	}

	w := Welcome{Version: 1, Resume: 1 << 40}
	if got, err := DecodeWelcome(AppendWelcome(nil, w)); err != nil || got != w {
		t.Fatalf("welcome: %+v, %v", got, err)
	}
	a := Ack{Offset: 123456789}
	if got, err := DecodeAck(AppendAck(nil, a)); err != nil || got != a {
		t.Fatalf("ack: %+v, %v", got, err)
	}
	hbt := Heartbeat{Mark: time.Now().UnixNano()}
	if got, err := DecodeHeartbeat(AppendHeartbeat(nil, hbt)); err != nil || got != hbt {
		t.Fatalf("heartbeat: %+v, %v", got, err)
	}
	g := Goodbye{Final: 42}
	if got, err := DecodeGoodbye(AppendGoodbye(nil, g)); err != nil || got != g {
		t.Fatalf("goodbye: %+v, %v", got, err)
	}
	r := Reject{Code: CodeGap, Msg: "batch base 9 but acknowledged offset is 3"}
	if got, err := DecodeReject(AppendReject(nil, r)); err != nil || got != r {
		t.Fatalf("reject: %+v, %v", got, err)
	}
}

func TestDecodeHelloRejectsHostileInput(t *testing.T) {
	good, err := AppendHello(nil, Hello{Version: 1, Sensor: 1, Token: []byte("t")})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"short":     good[:10],
		"bad magic": append([]byte("NOTMAGIC"), good[8:]...),
		"token lies": func() []byte {
			b := append([]byte(nil), good...)
			binary.BigEndian.PutUint16(b[14:16], 500) // claims more than present
			return b
		}(),
		"trailing junk": append(append([]byte(nil), good...), 0xFF),
	}
	for name, b := range cases {
		if _, err := DecodeHello(b); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: %v, want ErrProtocol", name, err)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	recs := []ingest.Datagram{
		{Time: time.Unix(0, 5e9).UTC(), Victim: netip.MustParseAddr("10.1.2.3"), Port: 123, Sensor: 7, Payload: []byte{0x17, 0, 3, 0x2a}},
		{Time: time.Unix(0, 6e9).UTC(), Victim: netip.MustParseAddr("2001:db8::1"), Port: 53, Sensor: 8, Payload: samplePayload(90)},
	}
	payload := AppendBatchHeader(nil, BatchHeader{
		Base: 1000, Count: uint32(len(recs)),
		TraceID: 0xfeed, SpanID: 0xbeef, SendUnixNanos: 7e9,
	}, ProtocolVersion)
	for _, d := range recs {
		var err error
		if payload, err = spool.AppendRecord(payload, d); err != nil {
			t.Fatal(err)
		}
	}
	h, rest, err := DecodeBatchHeader(payload, ProtocolVersion)
	if err != nil {
		t.Fatal(err)
	}
	if h.Base != 1000 || h.Count != 2 || h.TraceID != 0xfeed || h.SpanID != 0xbeef || h.SendUnixNanos != 7e9 {
		t.Fatalf("header: %+v", h)
	}
	var got []ingest.Datagram
	err = DecodeBatchRecords(h, rest, func(i uint32, d ingest.Datagram) error {
		d.Payload = append([]byte(nil), d.Payload...)
		got = append(got, d)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		w, g := recs[i], got[i]
		if !w.Time.Equal(g.Time) || w.Victim != g.Victim || w.Port != g.Port || w.Sensor != g.Sensor || !bytes.Equal(w.Payload, g.Payload) {
			t.Fatalf("record %d: got %+v want %+v", i, g, w)
		}
	}

	// A count that exceeds the bytes present must fail, as must bytes
	// beyond the declared count.
	h2 := BatchHeader{Base: 0, Count: 3}
	if err := DecodeBatchRecords(h2, rest, nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("short records: %v", err)
	}
	h3 := BatchHeader{Base: 0, Count: 1}
	if err := DecodeBatchRecords(h3, rest, nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("trailing records: %v", err)
	}
}

func TestRejectErrorPermanence(t *testing.T) {
	for code, want := range map[uint16]bool{
		CodeAuth:     true,
		CodeVersion:  true,
		CodeBadFrame: false,
		CodeGap:      false,
		CodeKicked:   false,
		CodeShutdown: false,
	} {
		e := &RejectError{Code: code}
		if e.Permanent() != want {
			t.Errorf("code %s: Permanent() = %v, want %v", codeName(code), e.Permanent(), want)
		}
	}
}
