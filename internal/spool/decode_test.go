package spool

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"booters/internal/ingest"
	"booters/internal/protocols"
)

// zeroAfterFull builds n datagrams that alternate a payload-carrying
// record with a zero-length one, the pattern that exposes a decoder
// which fills a reused Datagram and forgets to clear its Payload.
func zeroAfterFull(n int) []ingest.Datagram {
	payload := protocols.DNS.Request()
	out := make([]ingest.Datagram, n)
	for i := range out {
		out[i] = ingest.Datagram{
			Time:   testStart.Add(time.Duration(i) * time.Second),
			Sensor: i % 3,
			Victim: netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}),
			Port:   protocols.DNS.Port(),
		}
		if i%2 == 0 {
			out[i].Payload = payload
		}
	}
	return out
}

// TestZeroPayloadAfterPayloadDecodesEmpty pins the in-place decode's one
// hazard: a zero-length-payload record that follows a non-empty one must
// not inherit its predecessor's payload, on any decode path — the
// sequential reader, both replay modes and the wire-facing DecodeRecord.
func TestZeroPayloadAfterPayloadDecodesEmpty(t *testing.T) {
	want := zeroAfterFull(3000)
	for _, codec := range testCodecs(t) {
		dir := t.TempDir()
		record(t, dir, want, Options{Codec: codec, SegmentBytes: 16 << 10, BlockBytes: 4 << 10})
		t.Run(codec.Name()+"/Reader.Next", func(t *testing.T) {
			sameDatagrams(t, readSequential(t, dir), want)
		})
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/ReplayWindow/workers=%d", codec.Name(), workers), func(t *testing.T) {
				got, _ := collectReplay(t, dir, ReplayOptions{Workers: workers})
				sameDatagrams(t, got, want)
			})
		}
	}
	t.Run("DecodeRecord", func(t *testing.T) {
		var buf []byte
		for _, d := range want {
			var err error
			if buf, err = AppendRecord(buf, d); err != nil {
				t.Fatal(err)
			}
		}
		var got []ingest.Datagram
		for len(buf) > 0 {
			d, n, err := DecodeRecord(buf)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, d)
			buf = buf[n:]
		}
		sameDatagrams(t, got, want)
	})
}

// FuzzDecodeRecordReuse holds the in-place decoder to the fresh one on
// arbitrary bytes: walking a buffer record by record into one reused
// Datagram — primed with a payload-carrying record — must yield exactly
// what a fresh DecodeRecord yields at every step, errors included.
func FuzzDecodeRecordReuse(f *testing.F) {
	var seed []byte
	for _, d := range zeroAfterFull(4) {
		seed, _ = AppendRecord(seed, d)
	}
	f.Add(seed)
	f.Add(seed[:recordHeaderSize+3])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, recordHeaderSize))
	primer := zeroAfterFull(1)[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		reused := primer
		for b := data; ; {
			fresh, nf, errf := DecodeRecord(b)
			n, err := decodeRecordInto(b, &reused)
			if (err == nil) != (errf == nil) {
				t.Fatalf("in-place error %v, fresh error %v", err, errf)
			}
			if err != nil {
				return
			}
			if n != nf || !reflect.DeepEqual(reused, fresh) {
				t.Fatalf("in-place decode %+v (%d bytes), fresh %+v (%d bytes)", reused, n, fresh, nf)
			}
			b = b[n:]
		}
	})
}
