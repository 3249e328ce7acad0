package spool

import (
	"errors"
	"fmt"
)

// Codec compresses the raw byte stream of one block before it is framed
// into a segment file, and restores it on read. Implementations are
// identified on disk by a one-byte codec ID in the segment header, so a
// reader never needs out-of-band configuration to open a spool.
//
// Concurrency rule: a Codec instance is owned by a single goroutine.
// Both Encode and Decode may keep per-instance scratch state (hash
// tables, entropy tables, decode arenas), so instances are never shared:
// every Writer gets its own via CodecByName, and every segment reader —
// including each worker of a parallel replay — acquires its own decoder
// via codecByID. Nothing in the package hands one instance to two
// goroutines.
type Codec interface {
	// Name is the codec's spelling in MANIFEST files and in
	// booteringest's -compress flag: "none" or "lz4".
	Name() string
	// Encode appends the compressed form of src to dst and returns the
	// extended slice. The writer discards the result and stores src raw
	// whenever len(encoded) >= len(src), so Encode never needs to
	// guarantee a ratio.
	Encode(dst, src []byte) []byte
	// Decode decompresses src into dst, whose length is the block's
	// recorded raw size. It returns an error (not a partial result) for
	// any malformed input, and must never read or write out of bounds.
	Decode(dst, src []byte) error
}

// Codec IDs as stored in the v2 segment header. IDs are append-only: a
// released ID is never reused for a different format. ID 2 (zstd) is
// retired: readers reject it as corrupt, and it must never be reused.
const (
	codecIDNone byte = 0
	codecIDLZ4  byte = 1
)

// CodecByName returns a fresh codec instance for a MANIFEST / flag
// spelling: "none" (or "") and "lz4".
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "none":
		return noneCodec{}, nil
	case "lz4":
		return newLZ4Codec(), nil
	}
	return nil, fmt.Errorf("spool: unknown codec %q (want none or lz4)", name)
}

// Codecs lists the codec names CodecByName accepts, in ID order.
func Codecs() []string { return []string{"none", "lz4"} }

// codecID returns the on-disk ID for a codec instance.
func codecID(c Codec) (byte, error) {
	switch c.(type) {
	case noneCodec:
		return codecIDNone, nil
	case *lz4Codec:
		return codecIDLZ4, nil
	}
	return 0, fmt.Errorf("spool: codec %q has no registered ID", c.Name())
}

// codecByID returns a fresh decoder for an on-disk codec ID. Fresh per
// call on purpose: decoders carry per-instance scratch, so each segment
// reader must own its own (see the Codec concurrency rule).
func codecByID(id byte) (Codec, error) {
	switch id {
	case codecIDNone:
		return noneCodec{}, nil
	case codecIDLZ4:
		return newLZ4Codec(), nil
	}
	return nil, fmt.Errorf("spool: unknown codec ID %d", id)
}

// noneCodec is the identity codec: blocks are stored raw. It is the
// default, so a spool costs nothing over its raw records when
// compression is off.
type noneCodec struct{}

// Name returns "none".
func (noneCodec) Name() string { return "none" }

// Encode copies src verbatim; the writer's "stored == raw" rule then
// stores the block uncompressed.
func (noneCodec) Encode(dst, src []byte) []byte { return append(dst, src...) }

// Decode copies src into dst; the lengths must match.
func (noneCodec) Decode(dst, src []byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("spool: raw block is %d bytes, expected %d", len(src), len(dst))
	}
	copy(dst, src)
	return nil
}

// The LZ4-style codec: an LZ77 byte stream of (literal run, match)
// sequences in the classic LZ4 block layout — token byte with 4-bit
// literal and match lengths, 255-chain length extensions, 2-byte
// little-endian match offsets, 4-byte minimum match — produced by a
// greedy single-pass encoder over a 2^14-entry hash table. The format is
// specified normatively in docs/SPOOL_FORMAT.md; it is LZ4-like but
// framed by the spool's own block headers, so no interchange with
// external LZ4 tooling is implied.

const (
	// lzMinMatch is the shortest back-reference worth encoding; shorter
	// repeats cost more to frame than to store as literals.
	lzMinMatch = 4
	// lzMaxOffset bounds how far back a match may reach: offsets are
	// stored in 2 bytes.
	lzMaxOffset = 1<<16 - 1
	// lzHashLog sizes the encoder's hash table (2^14 entries, 64 KiB),
	// cleared per block.
	lzHashLog = 14
)

// errLZ4 reports a malformed compressed block. It is wrapped into
// ErrCorrupt by the segment reader.
var errLZ4 = errors.New("malformed lz4 block")

// lz4Codec carries the encoder's hash table so repeated Encode calls
// from one Writer do not reallocate it. Decode uses no state today, but
// the instance is still confined to one reader per the Codec rule.
type lz4Codec struct {
	table []int32 // position+1 of the last occurrence of each 4-byte hash; 0 = empty
}

// newLZ4Codec returns a codec with a fresh hash table.
func newLZ4Codec() *lz4Codec { return &lz4Codec{table: make([]int32, 1<<lzHashLog)} }

// Name returns "lz4".
func (*lz4Codec) Name() string { return "lz4" }

// lzHash maps a 4-byte sequence to a hash-table slot (Fibonacci hashing).
func lzHash(v uint32) uint32 { return (v * 2654435761) >> (32 - lzHashLog) }

// lzLoad32 reads 4 little-endian bytes; the caller guarantees bounds.
func lzLoad32(b []byte, i int) uint32 {
	_ = b[i+3]
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

// Encode compresses src with a greedy single-pass match search. The
// output is only used when it is strictly smaller than src (the writer
// stores raw otherwise), so pathological inputs just cost the pass.
func (c *lz4Codec) Encode(dst, src []byte) []byte {
	clear(c.table)
	n := len(src)
	if n == 0 {
		return dst
	}
	anchor, i := 0, 0
	// Stop the match search 8 bytes early: lzLoad32 needs 4 bytes at
	// both the candidate and the cursor, and a final literal run must
	// remain representable.
	end := n - 8
	for i < end {
		h := lzHash(lzLoad32(src, i))
		cand := int(c.table[h]) - 1
		c.table[h] = int32(i + 1)
		if cand < 0 || i-cand > lzMaxOffset || lzLoad32(src, cand) != lzLoad32(src, i) {
			i++
			continue
		}
		m := lzMinMatch
		for i+m < n && src[cand+m] == src[i+m] {
			m++
		}
		dst = lzEmitSequence(dst, src[anchor:i], i-cand, m)
		i += m
		anchor = i
	}
	if anchor < n {
		dst = lzEmitLiterals(dst, src[anchor:])
	}
	return dst
}

// lzEmitSequence appends one (literals, match) sequence.
func lzEmitSequence(dst, lit []byte, offset, matchLen int) []byte {
	ll, ml := len(lit), matchLen-lzMinMatch
	tok := byte(0)
	if ll >= 15 {
		tok = 15 << 4
	} else {
		tok = byte(ll) << 4
	}
	if ml >= 15 {
		tok |= 15
	} else {
		tok |= byte(ml)
	}
	dst = append(dst, tok)
	if ll >= 15 {
		dst = lzAppendExt(dst, ll-15)
	}
	dst = append(dst, lit...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = lzAppendExt(dst, ml-15)
	}
	return dst
}

// lzEmitLiterals appends a final literal-only sequence (no offset).
func lzEmitLiterals(dst, lit []byte) []byte {
	ll := len(lit)
	if ll >= 15 {
		dst = append(dst, 15<<4)
		dst = lzAppendExt(dst, ll-15)
	} else {
		dst = append(dst, byte(ll)<<4)
	}
	return append(dst, lit...)
}

// lzAppendExt appends a 255-chain length extension.
func lzAppendExt(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// Decode reverses Encode. Every length, offset and bound is validated
// before use, so corrupt input yields errLZ4 rather than a panic or an
// out-of-bounds access.
func (*lz4Codec) Decode(dst, src []byte) error {
	di, si := 0, 0
	for si < len(src) {
		tok := src[si]
		si++
		ll := int(tok >> 4)
		if ll == 15 {
			for {
				if si >= len(src) {
					return errLZ4
				}
				b := src[si]
				si++
				ll += int(b)
				if b != 255 {
					break
				}
			}
		}
		if ll > 0 {
			if si+ll > len(src) || di+ll > len(dst) {
				return errLZ4
			}
			copy(dst[di:], src[si:si+ll])
			di += ll
			si += ll
		}
		if si == len(src) {
			break // final literal-only sequence
		}
		if si+2 > len(src) {
			return errLZ4
		}
		offset := int(src[si]) | int(src[si+1])<<8
		si += 2
		if offset == 0 || offset > di {
			return errLZ4
		}
		ml := int(tok & 15)
		if ml == 15 {
			for {
				if si >= len(src) {
					return errLZ4
				}
				b := src[si]
				si++
				ml += int(b)
				if b != 255 {
					break
				}
			}
		}
		ml += lzMinMatch
		if di+ml > len(dst) {
			return errLZ4
		}
		if offset >= ml {
			copy(dst[di:di+ml], dst[di-offset:])
			di += ml
		} else {
			// Overlapping match: the source window grows as we copy.
			for k := 0; k < ml; k++ {
				dst[di] = dst[di-offset]
				di++
			}
		}
	}
	if di != len(dst) {
		return errLZ4
	}
	return nil
}
