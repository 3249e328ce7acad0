package spool

import (
	"encoding/binary"
	"testing"
)

// codecBenchBlock builds one representative raw block: a spooled record
// stream at the default block size, the byte pattern every codec
// decision in this package is tuned for.
func codecBenchBlock(b *testing.B) []byte {
	b.Helper()
	datagrams := testDatagrams(b, 2, 400)
	var raw []byte
	for _, d := range datagrams {
		if len(raw) >= DefaultBlockBytes {
			break
		}
		var hdr [recordHeaderSize]byte
		binary.BigEndian.PutUint64(hdr[0:8], uint64(d.Time.UnixNano()))
		v16 := d.Victim.As16()
		copy(hdr[8:24], v16[:])
		binary.BigEndian.PutUint16(hdr[24:26], uint16(d.Port))
		binary.BigEndian.PutUint32(hdr[26:30], uint32(d.Sensor))
		binary.BigEndian.PutUint16(hdr[30:32], uint16(len(d.Payload)))
		raw = append(raw, hdr[:]...)
		raw = append(raw, d.Payload...)
	}
	if len(raw) < DefaultBlockBytes/2 {
		b.Fatalf("degenerate bench block: %d bytes", len(raw))
	}
	return raw
}

// runCodecEncode measures one codec's block encode throughput (input
// MB/s) on the record-stream block.
func runCodecEncode(b *testing.B, name string) {
	c, err := CodecByName(name)
	if err != nil {
		b.Fatal(err)
	}
	raw := codecBenchBlock(b)
	var enc []byte
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc = c.Encode(enc[:0], raw)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(enc))/float64(len(raw)), "ratio")
}

// runCodecDecode measures one codec's block decode throughput (output
// MB/s) on the record-stream block.
func runCodecDecode(b *testing.B, name string) {
	c, err := CodecByName(name)
	if err != nil {
		b.Fatal(err)
	}
	raw := codecBenchBlock(b)
	enc := c.Encode(nil, raw)
	if len(enc) >= len(raw) {
		b.Fatalf("%s did not compress the bench block", name)
	}
	dst := make([]byte, len(raw))
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Decode(dst, enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecEncodeLZ4(b *testing.B) { runCodecEncode(b, "lz4") }
func BenchmarkCodecDecodeLZ4(b *testing.B) { runCodecDecode(b, "lz4") }
