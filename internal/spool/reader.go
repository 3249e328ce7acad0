package spool

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"booters/internal/ingest"
)

// disableMmap forces every segment reader onto the buffered fallback
// path. It exists for tests (the mmap/fallback equivalence properties)
// and must only be flipped while no reader is open.
var disableMmap bool

// segmentReader streams one v2 segment file. next returns io.EOF at a
// clean end — only after the trailer has been read, its checksums
// verified and its record count matched against the records actually
// decoded — and an error wrapping ErrCorrupt for anything torn or
// inconsistent, including a magic other than "BOOTSPL2".
//
// The segment is memory-mapped when the platform allows it: codec-none
// blocks (and raw-stored blocks inside compressed segments) are then
// sliced straight out of the mapping with no copy, and compressed
// blocks decode into one per-reader buffer reused across blocks. The
// buffered fallback reuses the same buffers, so neither path allocates
// per block in steady state. The price is the borrowed-payload
// contract: every payload next returns aliases either the mapping or
// the reused decode buffer and is only valid until the following next
// or close call.
type segmentReader struct {
	path  string
	f     *os.File
	mm    []byte        // whole segment, memory-mapped; nil on the fallback path
	pos   int           // read cursor into mm
	br    *bufio.Reader // buffered fallback; nil when mm is live
	codec Codec

	crc     uint32 // running CRC over block bytes
	raw     []byte // current block: a mapping slice or rawBuf
	off     int
	rawBuf  []byte // reused block decode buffer
	stored  []byte // compressed-block scratch, reused (fallback path)
	records uint64
	done    bool
}

// openSegmentReader opens one segment and parses its header.
func openSegmentReader(path string) (*segmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spool: %w", err)
	}
	sr := &segmentReader{path: path, f: f}
	if !disableMmap {
		if mm, err := mmapSegment(f); err == nil {
			sr.mm = mm
		}
	}
	if sr.mm == nil {
		sr.br = bufio.NewReaderSize(f, 256<<10)
	}
	var headBuf [segHeaderSize]byte
	head, err := sr.read(8, headBuf[:8])
	if err != nil {
		sr.close()
		return nil, sr.corrupt("segment header cut off")
	}
	if string(head) != magicV2 {
		sr.close()
		return nil, sr.corrupt("bad magic")
	}
	rest, err := sr.read(segHeaderSize-8, headBuf[8:])
	if err != nil {
		sr.close()
		return nil, sr.corrupt("segment header cut off")
	}
	if sr.codec, err = codecByID(rest[0]); err != nil {
		sr.close()
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	return sr, nil
}

// read returns the segment's next n bytes with io.ReadFull semantics:
// io.EOF when the segment ends exactly here, io.ErrUnexpectedEOF when
// it ends mid-read. On the mapped path the returned slice aliases the
// mapping (zero copy; scratch is unused and may be nil); on the
// buffered path the bytes are read into scratch, which must hold n.
func (sr *segmentReader) read(n int, scratch []byte) ([]byte, error) {
	if sr.mm != nil {
		rem := len(sr.mm) - sr.pos
		if rem == 0 {
			return nil, io.EOF
		}
		if rem < n {
			sr.pos = len(sr.mm)
			return nil, io.ErrUnexpectedEOF
		}
		b := sr.mm[sr.pos : sr.pos+n : sr.pos+n]
		sr.pos += n
		return b, nil
	}
	b := scratch[:n]
	if _, err := io.ReadFull(sr.br, b); err != nil {
		return nil, err
	}
	return b, nil
}

// atEnd reports whether the segment has no bytes left, consuming one
// byte on the buffered path if it does not (only called after the
// trailer, where any remaining byte is already a corruption).
func (sr *segmentReader) atEnd() bool {
	if sr.mm != nil {
		return sr.pos == len(sr.mm)
	}
	_, err := sr.br.ReadByte()
	return err == io.EOF
}

// growRaw returns the reusable block decode buffer sized to n.
func (sr *segmentReader) growRaw(n int) []byte {
	if cap(sr.rawBuf) < n {
		sr.rawBuf = make([]byte, n)
	}
	return sr.rawBuf[:n]
}

// corruptError is a segment-scoped corruption diagnosis. It unwraps to
// ErrCorrupt, and keeps the bare reason separate so replay stats can
// report it without re-stating the segment path.
type corruptError struct {
	path   string
	reason string
}

// Error renders the full segment-scoped message.
func (e *corruptError) Error() string { return fmt.Sprintf("%v: %s: %s", ErrCorrupt, e.path, e.reason) }

// Unwrap ties the error into errors.Is(err, ErrCorrupt).
func (e *corruptError) Unwrap() error { return ErrCorrupt }

// corruptReason extracts the bare diagnosis from a segment scan error.
func corruptReason(err error) string {
	var ce *corruptError
	if errors.As(err, &ce) {
		return ce.reason
	}
	return err.Error()
}

// corrupt builds a segment-scoped error wrapping ErrCorrupt.
func (sr *segmentReader) corrupt(format string, args ...any) error {
	return &corruptError{path: sr.path, reason: fmt.Sprintf(format, args...)}
}

// next decodes the segment's next datagram into d, returning io.EOF at
// its verified end or an error wrapping ErrCorrupt. It fills every field
// of d (a record without payload leaves d.Payload nil), so the caller
// can reuse one Datagram across calls without copying it. The payload is
// borrowed — valid only until the next call to next or close.
func (sr *segmentReader) next(d *ingest.Datagram) error {
	if sr.done {
		return io.EOF
	}
	for sr.off >= len(sr.raw) {
		if err := sr.readBlock(); err != nil {
			return err
		}
	}
	if sr.off+recordHeaderSize > len(sr.raw) {
		return sr.corrupt("record header crosses block boundary")
	}
	plen := decodeRecordHeader(sr.raw[sr.off:sr.off+recordHeaderSize], d)
	sr.off += recordHeaderSize
	if plen > 0 {
		if sr.off+plen > len(sr.raw) {
			return sr.corrupt("record payload crosses block boundary")
		}
		// Borrowed: aliases the current block (a mapping slice or the
		// reused decode buffer), which the next readBlock replaces.
		d.Payload = sr.raw[sr.off : sr.off+plen : sr.off+plen]
		sr.off += plen
	}
	sr.records++
	return nil
}

// readBlock reads the next block frame into sr.raw, or verifies the
// trailer and returns io.EOF at the segment's end.
func (sr *segmentReader) readBlock() error {
	var hbuf [blockHeaderSize]byte
	lead, err := sr.read(4, hbuf[:4])
	if err != nil {
		if err == io.EOF {
			return sr.corrupt("trailer missing (torn segment)")
		}
		return sr.corrupt("block header cut off")
	}
	if bytes.Equal(lead, []byte(trailerMagic)[:4]) {
		return sr.readTrailer(lead)
	}
	storedLen := int(binary.BigEndian.Uint32(lead))
	rest, err := sr.read(blockHeaderSize-4, hbuf[4:])
	if err != nil {
		return sr.corrupt("block header cut off")
	}
	rawLen := int(binary.BigEndian.Uint32(rest[0:4]))
	blockCRC := binary.BigEndian.Uint32(rest[4:8])
	if rawLen <= 0 || rawLen > maxBlockRaw || storedLen <= 0 || storedLen > rawLen {
		return sr.corrupt("implausible block frame (stored=%d raw=%d)", storedLen, rawLen)
	}
	// Acquire the stored bytes. Mapped: slice the mapping — for a
	// raw-stored block that slice IS the block, the zero-copy fast path.
	// Buffered: raw-stored blocks land directly in the reusable decode
	// buffer, compressed ones in the stored scratch. Either way no
	// allocation in steady state; records alias whatever sr.raw ends up
	// pointing at, under the borrowed-payload contract.
	var stored []byte
	if sr.mm != nil {
		if stored, err = sr.read(storedLen, nil); err != nil {
			return sr.corrupt("block cut off")
		}
	} else {
		if storedLen == rawLen {
			stored = sr.growRaw(rawLen)
		} else {
			if cap(sr.stored) < storedLen {
				sr.stored = make([]byte, storedLen)
			}
			stored = sr.stored[:storedLen]
		}
		if _, err := io.ReadFull(sr.br, stored); err != nil {
			return sr.corrupt("block cut off")
		}
	}
	sr.crc = crc32.Update(sr.crc, crc32.IEEETable, lead)
	sr.crc = crc32.Update(sr.crc, crc32.IEEETable, rest)
	sr.crc = crc32.Update(sr.crc, crc32.IEEETable, stored)
	if crc32.ChecksumIEEE(stored) != blockCRC {
		return sr.corrupt("block checksum mismatch")
	}
	if storedLen == rawLen {
		sr.raw = stored
	} else {
		sr.raw = sr.growRaw(rawLen)
		if err := sr.codec.Decode(sr.raw, stored); err != nil {
			return sr.corrupt("%v", err)
		}
	}
	sr.off = 0
	return nil
}

// readTrailer consumes and verifies the 48-byte trailer whose first four
// bytes are already in lead, then confirms the file ends there.
func (sr *segmentReader) readTrailer(lead []byte) error {
	var tr [trailerSize]byte
	copy(tr[:4], lead)
	rest, err := sr.read(trailerSize-4, tr[4:])
	if err != nil {
		return sr.corrupt("trailer cut off")
	}
	copy(tr[4:], rest)
	if string(tr[:8]) != trailerMagic {
		return sr.corrupt("bad trailer magic")
	}
	if crc32.ChecksumIEEE(tr[:44]) != binary.BigEndian.Uint32(tr[44:48]) {
		return sr.corrupt("trailer checksum mismatch")
	}
	if got := binary.BigEndian.Uint32(tr[40:44]); got != sr.crc {
		return sr.corrupt("segment checksum mismatch")
	}
	if n := binary.BigEndian.Uint64(tr[8:16]); n != sr.records {
		return sr.corrupt("trailer records %d, decoded %d", n, sr.records)
	}
	if !sr.atEnd() {
		return sr.corrupt("trailing bytes after trailer")
	}
	sr.done = true
	return io.EOF
}

// close releases the segment file and its mapping. Any payload borrowed
// from this segment is invalid afterwards.
func (sr *segmentReader) close() error {
	if sr.mm != nil {
		munmapSegment(sr.mm)
		sr.mm = nil
		// sr.raw may alias the dead mapping; drop it so a misuse fails
		// loudly instead of reading unmapped memory.
		sr.raw = nil
		sr.off = 0
	}
	if sr.f == nil {
		return nil
	}
	err := sr.f.Close()
	sr.f = nil
	return err
}

// decodeRecordHeader parses the fixed 32-byte record header into d and
// returns the payload length. It overwrites every field of d and leaves
// Payload nil, so decoding into a reused Datagram never carries the
// previous record's payload over; the caller attaches the payload.
func decodeRecordHeader(b []byte, d *ingest.Datagram) int {
	b = b[:recordHeaderSize]
	d.Time = time.Unix(0, int64(binary.BigEndian.Uint64(b[0:8]))).UTC()
	addr := netip.AddrFrom16([16]byte(b[8:24]))
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	d.Victim = addr
	d.Port = int(binary.BigEndian.Uint16(b[24:26]))
	d.Sensor = int(binary.BigEndian.Uint32(b[26:30]))
	d.Payload = nil
	return int(binary.BigEndian.Uint16(b[30:32]))
}

// Reader replays a spool directory sequentially, crossing segment
// boundaries transparently. It is not safe for concurrent use; open one
// reader per replay. For windowed, parallel or corruption-tolerant
// replay use ReplayWindow instead.
type Reader struct {
	segs []string
	i    int
	sr   *segmentReader
	n    uint64
	base uint64
}

// Open opens a spool directory for sequential replay.
func Open(dir string) (*Reader, error) {
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("spool: no segments in %s", dir)
	}
	r := &Reader{segs: segs}
	if r.sr, err = openSegmentReader(segs[0]); err != nil {
		return nil, err
	}
	return r, nil
}

// OpenAt opens a spool directory positioned at the given absolute record
// offset (record 0 is the first datagram ever appended), so a replay can
// resume exactly where an earlier one was acknowledged — the wire
// protocol's reconnect-with-resume primitive. Whole segments before the
// offset are skipped through the index without being opened; only the
// remainder within the first relevant segment (and any unindexed
// segment) is decoded and discarded. An offset at or beyond the spool's
// end yields a reader whose first Next returns io.EOF.
func OpenAt(dir string, offset uint64) (*Reader, error) {
	idx, err := LoadIndex(dir)
	if err != nil {
		return nil, err
	}
	if len(idx.Segments) == 0 {
		return nil, fmt.Errorf("spool: no segments in %s", dir)
	}
	r := &Reader{base: offset}
	for _, s := range idx.Segments {
		r.segs = append(r.segs, filepath.Join(dir, s.Name))
	}
	// Skip whole indexed segments by their attested record counts.
	rem := offset
	for r.i < len(idx.Segments) && idx.Segments[r.i].Indexed && rem >= idx.Segments[r.i].Records {
		rem -= idx.Segments[r.i].Records
		r.i++
	}
	if r.i >= len(r.segs) {
		return r, nil // positioned at (or past) the end
	}
	if r.sr, err = openSegmentReader(r.segs[r.i]); err != nil {
		return nil, err
	}
	// Decode and discard the remainder inside the segment (and across
	// unindexed segments, which cannot be skipped without scanning).
	var d ingest.Datagram
	for rem > 0 {
		if err := r.sr.next(&d); err == io.EOF {
			r.sr.close()
			r.i++
			if r.i >= len(r.segs) {
				r.sr = nil
				return r, nil
			}
			if r.sr, err = openSegmentReader(r.segs[r.i]); err != nil {
				return nil, err
			}
			continue
		} else if err != nil {
			r.sr.close()
			return nil, err
		}
		rem--
	}
	return r, nil
}

// Next returns the next datagram in spool order, io.EOF after the last
// one, or an error wrapping ErrCorrupt for a cut-off or inconsistent
// segment.
//
// The datagram's Payload is borrowed: it aliases the reader's current
// decoded block — a memory-mapped segment slice or a reused decode
// buffer — and is valid only until the next call to Next or Close. A
// caller that stores payloads past that point must copy them
// (append([]byte(nil), d.Payload...)). The fixed fields (Time, Victim,
// Port, Sensor) are plain values and safe to keep.
func (r *Reader) Next() (ingest.Datagram, error) {
	if r.sr == nil {
		return ingest.Datagram{}, io.EOF
	}
	var d ingest.Datagram
	for {
		err := r.sr.next(&d)
		if err == nil {
			r.n++
			return d, nil
		}
		if err != io.EOF {
			return ingest.Datagram{}, err
		}
		r.sr.close()
		r.i++
		if r.i >= len(r.segs) {
			return ingest.Datagram{}, io.EOF
		}
		if r.sr, err = openSegmentReader(r.segs[r.i]); err != nil {
			return ingest.Datagram{}, err
		}
	}
}

// Count returns the number of datagrams returned so far.
func (r *Reader) Count() uint64 { return r.n }

// Offset returns the absolute record offset of the next datagram Next
// would return: the OpenAt starting position plus everything read since.
// Feeding it back into OpenAt resumes the replay exactly here.
func (r *Reader) Offset() uint64 { return r.base + r.n }

// Close releases the reader's current segment file and invalidates any
// payload borrowed from the last Next.
func (r *Reader) Close() error {
	if r.sr == nil {
		return nil
	}
	err := r.sr.close()
	r.sr = nil
	return err
}
