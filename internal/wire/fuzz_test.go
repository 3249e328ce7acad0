package wire

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
	"time"

	"booters/internal/ingest"
	"booters/internal/spool"
)

// fuzzSeedFrames builds a corpus of valid frames of every type, so the
// fuzzer starts from structure rather than noise.
func fuzzSeedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	hello, err := AppendHello(nil, Hello{Version: ProtocolVersion, Sensor: 9, Token: []byte("seed-token")})
	if err != nil {
		tb.Fatal(err)
	}
	batch := AppendBatchHeader(nil, BatchHeader{Base: 17, Count: 2, TraceID: 5, SpanID: 5, SendUnixNanos: 1538352000e9}, ProtocolVersion)
	for i := 0; i < 2; i++ {
		batch, err = spool.AppendRecord(batch, ingest.Datagram{
			Time:    time.Unix(1538352000+int64(i), 0).UTC(),
			Victim:  netip.MustParseAddr("192.0.2.7"),
			Port:    123,
			Sensor:  9,
			Payload: []byte{0x17, 0x00, 0x03, 0x2a},
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	payloads := map[FrameType][]byte{
		FrameHello:     hello,
		FrameWelcome:   AppendWelcome(nil, Welcome{Version: ProtocolVersion, Resume: 1 << 33}),
		FrameBatch:     batch,
		FrameAck:       AppendAck(nil, Ack{Offset: 99}),
		FrameHeartbeat: AppendHeartbeat(nil, Heartbeat{Mark: 1538352000e9}),
		FrameGoodbye:   AppendGoodbye(nil, Goodbye{Final: 19}),
		FrameReject:    AppendReject(nil, Reject{Code: CodeGap, Msg: "gap"}),
	}
	var out [][]byte
	for _, ft := range frameTypes {
		b, err := AppendFrame(nil, ft, payloads[ft])
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	// A multi-frame stream, so the fuzzer mutates frame boundaries too.
	var stream []byte
	for _, b := range out {
		stream = append(stream, b...)
	}
	out = append(out, stream)
	return out
}

// decodeTyped runs the matching message decoder over a frame payload,
// exercising every field-level bound the way a session would.
func decodeTyped(t FrameType, p []byte) {
	switch t {
	case FrameHello:
		DecodeHello(p)
	case FrameWelcome:
		DecodeWelcome(p)
	case FrameBatch:
		if h, rest, err := DecodeBatchHeader(p, ProtocolVersion); err == nil {
			DecodeBatchRecords(h, rest, func(uint32, ingest.Datagram) error { return nil })
		}
	case FrameAck:
		DecodeAck(p)
	case FrameHeartbeat:
		DecodeHeartbeat(p)
	case FrameGoodbye:
		DecodeGoodbye(p)
	case FrameReject:
		DecodeReject(p)
	}
}

// FuzzFrameDecode feeds arbitrary byte streams through the frame reader
// and the typed decoders. The invariant is total: any input either
// decodes or errors — no panics, no over-allocation from hostile length
// prefixes (the reader bounds every declared length before reading it).
func FuzzFrameDecode(f *testing.F) {
	for _, seed := range fuzzSeedFrames(f) {
		f.Add(seed)
		// Truncations and bit flips of valid frames are the interesting
		// hostile neighbourhood; seed a few directly.
		if len(seed) > 3 {
			f.Add(seed[:len(seed)/2])
			flipped := append([]byte(nil), seed...)
			flipped[1] ^= 0x80
			flipped[len(flipped)-1] ^= 0x01
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 3, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		for {
			ft, p, err := fr.Next()
			if err != nil {
				if err != io.EOF && fr.Bytes() > uint64(len(data)) {
					t.Fatalf("reader claims %d bytes from a %d-byte input", fr.Bytes(), len(data))
				}
				return
			}
			decodeTyped(ft, p)
		}
	})
}

// FuzzHandshake hammers the handshake-message decoders directly (no
// framing), plus the re-encode property: anything DecodeHello accepts
// must round-trip through AppendHello byte-identically — the decoder
// accepts nothing the encoder cannot produce.
func FuzzHandshake(f *testing.F) {
	good, err := AppendHello(nil, Hello{Version: ProtocolVersion, Sensor: 3, Token: []byte("fuzz")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-2])
	f.Add([]byte(Magic))
	f.Add(AppendWelcome(nil, Welcome{Version: 1, Resume: 7}))
	f.Add(AppendReject(nil, Reject{Code: CodeAuth, Msg: "bad token"}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := DecodeHello(data); err == nil {
			re, err := AppendHello(nil, h)
			if err != nil {
				t.Fatalf("accepted hello does not re-encode: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("hello round-trip diverged:\n in %x\nout %x", data, re)
			}
		}
		DecodeWelcome(data)
		DecodeAck(data)
		DecodeHeartbeat(data)
		DecodeGoodbye(data)
		DecodeReject(data)
		if h, rest, err := DecodeBatchHeader(data, ProtocolVersion); err == nil {
			DecodeBatchRecords(h, rest, func(uint32, ingest.Datagram) error { return nil })
		}
	})
}
