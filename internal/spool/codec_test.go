package spool

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// lzRoundTrip encodes src, decodes the result and requires equality.
func lzRoundTrip(t *testing.T, c *lz4Codec, src []byte) {
	t.Helper()
	enc := c.Encode(nil, src)
	dst := make([]byte, len(src))
	if err := c.Decode(dst, enc); err != nil {
		t.Fatalf("decode of %d-byte input (encoded %d): %v", len(src), len(enc), err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("round trip of %d-byte input diverged", len(src))
	}
}

// TestLZ4RoundTrip covers the encoder across input shapes: short inputs
// below the match threshold, highly repetitive data, incompressible
// noise, long runs (overlapping matches), and random mixtures.
func TestLZ4RoundTrip(t *testing.T) {
	c := newLZ4Codec()
	rng := rand.New(rand.NewSource(7))
	cases := [][]byte{
		{},
		{0x42},
		[]byte("abc"),
		[]byte("abcdabcdabcdabcd"),
		bytes.Repeat([]byte{0}, 100_000),      // maximal overlap, long extensions
		bytes.Repeat([]byte("spool"), 40_000), // short-period overlap
		[]byte("the quick brown fox jumps over the lazy dog"),
	}
	noise := make([]byte, 70_000)
	rng.Read(noise)
	cases = append(cases, noise)
	mixed := append(bytes.Repeat([]byte("BOOTERS"), 5000), noise[:30_000]...)
	cases = append(cases, append(mixed, bytes.Repeat([]byte("BOOTERS"), 5000)...))
	for i := 0; i < 50; i++ {
		n := rng.Intn(20_000)
		b := make([]byte, n)
		// Mix runs and noise so matches start and stop irregularly.
		for j := 0; j < n; {
			if rng.Intn(2) == 0 {
				run := min(rng.Intn(400)+1, n-j)
				ch := byte(rng.Intn(8))
				for k := 0; k < run; k++ {
					b[j+k] = ch
				}
				j += run
			} else {
				b[j] = byte(rng.Intn(256))
				j++
			}
		}
		cases = append(cases, b)
	}
	for _, src := range cases {
		lzRoundTrip(t, c, src)
	}
}

// TestLZ4CompressesRecordStreams checks the codec actually earns its
// keep on the byte pattern it was built for: spooled record streams,
// whose headers share timestamp prefixes and 4-in-6 address padding.
func TestLZ4CompressesRecordStreams(t *testing.T) {
	datagrams := testDatagrams(t, 1, 40)
	var raw []byte
	for _, d := range datagrams {
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
	if len(raw) < 4<<10 {
		t.Fatalf("degenerate test stream: %d bytes", len(raw))
	}
	c := newLZ4Codec()
	enc := c.Encode(nil, raw)
	if ratio := float64(len(enc)) / float64(len(raw)); ratio > 0.7 {
		t.Errorf("record-stream compression ratio %.2f, want <= 0.70 (%d -> %d bytes)", ratio, len(raw), len(enc))
	}
	lzRoundTrip(t, c, raw)
}

// TestLZ4DecodeMalformed flips and truncates valid encodings and
// requires Decode to fail cleanly (or, for flips that stay well-formed,
// succeed) without ever panicking or touching memory out of bounds.
func TestLZ4DecodeMalformed(t *testing.T) {
	c := newLZ4Codec()
	src := append(bytes.Repeat([]byte("boot the booters "), 500), make([]byte, 300)...)
	enc := c.Encode(nil, src)
	if len(enc) >= len(src) {
		t.Fatal("test input did not compress; corruption coverage would be vacuous")
	}
	dst := make([]byte, len(src))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		mut := append([]byte(nil), enc...)
		switch rng.Intn(3) {
		case 0:
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		case 1:
			mut = mut[:rng.Intn(len(mut))]
		case 2:
			mut = append(mut, byte(rng.Intn(256)))
		}
		// Must not panic; an error or a (harmless) wrong output are both
		// acceptable, since block CRCs catch content corruption upstream.
		c.Decode(dst, mut)
	}
	// Empty input only decodes an empty block.
	if err := c.Decode(make([]byte, 1), nil); err == nil {
		t.Error("decode of empty input into non-empty buffer: want error")
	}
}

// TestCodecByName pins the name registry both ways, including the
// default spelling and the failure mode.
func TestCodecByName(t *testing.T) {
	for _, name := range Codecs() {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatalf("CodecByName(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("CodecByName(%q).Name() = %q", name, c.Name())
		}
		id, err := codecID(c)
		if err != nil {
			t.Fatalf("codecID(%q): %v", name, err)
		}
		back, err := codecByID(id)
		if err != nil || back.Name() != name {
			t.Errorf("codecByID(%d) = %v, %v; want %q", id, back, err, name)
		}
	}
	if c, err := CodecByName(""); err != nil || c.Name() != "none" {
		t.Errorf(`CodecByName("") = %v, %v; want the none codec`, c, err)
	}
	// zstd and its ID 2 are retired; they resolve to nothing.
	for _, name := range []string{"snappy", "zstd"} {
		if _, err := CodecByName(name); err == nil {
			t.Errorf("CodecByName(%s): want error", name)
		}
	}
	for _, id := range []byte{2, 250} {
		if _, err := codecByID(id); err == nil {
			t.Errorf("codecByID(%d): want error", id)
		}
	}
}

// FuzzCodecRoundTrip drives every registered codec ID over fuzzed input
// in both directions: encode→decode must reproduce the input exactly,
// and decoding the fuzz input as if it were a stored block — at several
// claimed raw sizes — must never panic or read out of bounds. This is
// the hostile-decoder guarantee the reader relies on before block CRCs
// are even checked.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abcdabcdabcdabcd"))
	f.Add(bytes.Repeat([]byte("BOOTSPL2"), 64))
	f.Add(func() []byte {
		b := make([]byte, 2048)
		rand.New(rand.NewSource(3)).Read(b)
		return b
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range Codecs() {
			c, err := CodecByName(name)
			if err != nil {
				t.Fatalf("CodecByName(%q): %v", name, err)
			}
			enc := c.Encode(nil, data)
			dst := make([]byte, len(data))
			if err := c.Decode(dst, enc); err != nil {
				t.Fatalf("%s: decode of own encoding (%d -> %d bytes): %v", name, len(data), len(enc), err)
			}
			if !bytes.Equal(dst, data) {
				t.Fatalf("%s: round trip of %d-byte input diverged", name, len(data))
			}
			// Hostile direction: the fuzz input poses as a compressed
			// block with various claimed raw sizes.
			for _, rawLen := range []int{0, len(data), 2*len(data) + 17} {
				c.Decode(make([]byte, rawLen), data)
			}
		}
	})
}
