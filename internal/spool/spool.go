// Package spool implements an indexed, optionally compressed, append-only
// on-disk datagram store: record a packet capture (or a synthetic market
// run) once, then replay it repeatedly — whole, time-windowed, or fanned
// out to parallel segment readers, always delivered in recorded order
// with an optional low-watermark derived from the segment trailers —
// through any shard/sink configuration of the streaming pipeline.
//
// A spool is a directory of numbered segment files plus a MANIFEST. Each
// v2 segment starts with a 16-byte header (8-byte magic "BOOTSPL2", a
// codec ID, reserved bytes), holds records grouped into CRC-checked
// blocks — raw, or compressed by a pluggable Codec — and ends with a
// fixed 48-byte trailer carrying the record count, minimum and maximum
// record timestamps, raw byte count and a whole-segment checksum. The
// MANIFEST mirrors every trailer, so replay can prune segments outside a
// requested time window and assign segments to concurrent readers without
// touching the files it skips. Records inside a block use a fixed
// 32-byte header (receive time, victim address, port, sensor, payload
// length) followed by the raw payload.
//
// Two codecs exist: "none" (blocks stored raw) and "lz4". The v2 segment
// is the only format read: the retired v1 magic "BOOTSPL1" and the
// retired codec ID 2 are both rejected as corrupt.
//
// The complete normative format, including truncation and corruption
// recovery rules, is specified in docs/SPOOL_FORMAT.md.
package spool

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"booters/internal/ingest"
	"booters/internal/obs"
)

// ErrCorrupt reports a segment whose bytes cannot be a whole record
// stream: a bad magic, a record or block cut off, a checksum mismatch,
// or a trailer whose record count disagrees with the data.
var ErrCorrupt = errors.New("spool: corrupt segment")

const (
	magicV2       = "BOOTSPL2"
	trailerMagic  = "BOOTTRL2"
	manifestName  = "MANIFEST"
	manifestMagic = "bootspool-manifest v2"

	segHeaderSize    = 16
	recordHeaderSize = 32
	blockHeaderSize  = 12
	trailerSize      = 48

	// maxBlockRaw is the reader-side sanity cap on a block's decoded
	// size; the writer clamps BlockBytes well below it.
	maxBlockRaw = 8 << 20

	segmentExt = ".seg"

	// DefaultSegmentBytes is the rotation threshold when
	// Options.SegmentBytes is unset: 64 MiB, about two million spooled
	// request datagrams uncompressed.
	DefaultSegmentBytes = 64 << 20

	// DefaultBlockBytes is the raw bytes gathered into one block when
	// Options.BlockBytes is unset. 256 KiB keeps the compression window
	// useful while bounding the memory a reader needs per block.
	DefaultBlockBytes = 256 << 10
)

// Options tunes a Writer.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one
	// reaches this many stored bytes; <= 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// BlockBytes is the raw record bytes gathered into one block before
	// it is (optionally) compressed and framed; <= 0 means
	// DefaultBlockBytes. Clamped to [4 KiB, 4 MiB].
	BlockBytes int
	// Codec compresses blocks; nil means the "none" codec (blocks stored
	// raw). Use CodecByName.
	Codec Codec
	// Metrics, when non-nil, registers the spool write-path counters
	// (records, raw/stored bytes, finished segments — see docs/METRICS.md)
	// on the given registry. nil disables instrumentation.
	Metrics *obs.Registry
}

// Writer appends datagrams to a spool directory in the v2 format. It is
// not safe for concurrent use; a capture loop owns one writer.
type Writer struct {
	dir        string
	segBytes   int64
	blockBytes int
	codec      Codec
	codecByte  byte

	seg int
	f   *os.File
	bw  *bufio.Writer
	cur int64 // stored bytes written to the current segment, incl. header
	n   uint64
	err error

	block []byte // raw block being filled
	comp  []byte // codec output scratch

	// Per-segment trailer/manifest accumulators.
	segRecords uint64
	segMin     int64
	segMax     int64
	segRaw     uint64
	segStored  uint64 // block bytes incl. block headers
	segCRC     uint32

	manifest []SegmentInfo
	m        *writerMetrics
}

// Create opens a fresh spool in dir, creating the directory if needed. It
// refuses a directory that already holds segments: a spool is written
// once, and clobbering or interleaving an existing capture is never what
// the caller wants.
func Create(dir string, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spool: %w", err)
	}
	existing, err := segments(dir)
	if err != nil {
		return nil, err
	}
	if len(existing) > 0 {
		return nil, fmt.Errorf("spool: %s already holds %d segment(s)", dir, len(existing))
	}
	w := &Writer{dir: dir, segBytes: opts.SegmentBytes, blockBytes: opts.BlockBytes, codec: opts.Codec}
	if opts.Metrics != nil {
		w.m = newWriterMetrics(opts.Metrics)
	}
	if w.segBytes <= 0 {
		w.segBytes = DefaultSegmentBytes
	}
	if w.blockBytes <= 0 {
		w.blockBytes = DefaultBlockBytes
	}
	if w.blockBytes < 4<<10 {
		w.blockBytes = 4 << 10
	}
	if w.blockBytes > 4<<20 {
		w.blockBytes = 4 << 20
	}
	if w.codec == nil {
		w.codec = noneCodec{}
	}
	if w.codecByte, err = codecID(w.codec); err != nil {
		return nil, err
	}
	if err := w.rotate(); err != nil {
		return nil, err
	}
	return w, nil
}

// rotate finishes the current segment (if any) and starts the next one.
func (w *Writer) rotate() error {
	if w.f != nil {
		if err := w.finishSegment(); err != nil {
			return err
		}
	}
	name := filepath.Join(w.dir, fmt.Sprintf("%08d%s", w.seg, segmentExt))
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	w.seg++
	w.f = f
	w.bw = bufio.NewWriterSize(f, 256<<10)
	var head [segHeaderSize]byte
	copy(head[:], magicV2)
	head[8] = w.codecByte
	if _, err := w.bw.Write(head[:]); err != nil {
		f.Close()
		return fmt.Errorf("spool: %w", err)
	}
	w.cur = segHeaderSize
	w.segRecords, w.segMin, w.segMax, w.segRaw, w.segStored, w.segCRC = 0, 0, 0, 0, 0, 0
	return nil
}

// flushBlock frames the pending raw block — compressed if the codec
// shrinks it, raw otherwise — and streams it to the segment file.
func (w *Writer) flushBlock() error {
	if len(w.block) == 0 {
		return nil
	}
	raw := w.block
	stored := raw
	if w.codecByte != codecIDNone {
		w.comp = w.codec.Encode(w.comp[:0], raw)
		if len(w.comp) < len(raw) {
			stored = w.comp
		}
	}
	var hdr [blockHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(stored)))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(raw)))
	binary.BigEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(stored))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	if _, err := w.bw.Write(stored); err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	w.segCRC = crc32.Update(w.segCRC, crc32.IEEETable, hdr[:])
	w.segCRC = crc32.Update(w.segCRC, crc32.IEEETable, stored)
	n := int64(blockHeaderSize + len(stored))
	w.cur += n
	w.segStored += uint64(n)
	w.segRaw += uint64(len(raw))
	if w.m != nil {
		w.m.rawBytes.Add(uint64(len(raw)))
		w.m.stored.Add(uint64(n))
	}
	w.block = w.block[:0]
	return nil
}

// finishSegment flushes the pending block, writes the trailer, closes the
// file and books the segment into the in-memory manifest.
func (w *Writer) finishSegment() error {
	if err := w.flushBlock(); err != nil {
		w.f.Close()
		return err
	}
	var tr [trailerSize]byte
	copy(tr[:8], trailerMagic)
	binary.BigEndian.PutUint64(tr[8:16], w.segRecords)
	binary.BigEndian.PutUint64(tr[16:24], uint64(w.segMin))
	binary.BigEndian.PutUint64(tr[24:32], uint64(w.segMax))
	binary.BigEndian.PutUint64(tr[32:40], w.segRaw)
	binary.BigEndian.PutUint32(tr[40:44], w.segCRC)
	binary.BigEndian.PutUint32(tr[44:48], crc32.ChecksumIEEE(tr[:44]))
	if _, err := w.bw.Write(tr[:]); err != nil {
		w.f.Close()
		return fmt.Errorf("spool: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("spool: %w", err)
	}
	name := filepath.Base(w.f.Name())
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	w.f = nil
	info := SegmentInfo{
		Name:        name,
		Version:     2,
		Codec:       w.codec.Name(),
		Records:     w.segRecords,
		RawBytes:    w.segRaw,
		StoredBytes: w.segStored,
		CRC:         w.segCRC,
		Indexed:     true,
	}
	if w.segRecords > 0 {
		info.Min = time.Unix(0, w.segMin).UTC()
		info.Max = time.Unix(0, w.segMax).UTC()
	}
	w.manifest = append(w.manifest, info)
	if w.m != nil {
		w.m.segments.Inc()
	}
	return nil
}

// Append records one datagram. Errors are sticky: after the first failure
// every subsequent Append returns the same error.
func (w *Writer) Append(d ingest.Datagram) error {
	if w.err != nil {
		return w.err
	}
	if w.cur+int64(len(w.block)) >= w.segBytes {
		if err := w.rotate(); err != nil {
			w.err = err
			return err
		}
	}
	block, err := AppendRecord(w.block, d)
	if err != nil {
		return err
	}
	w.block = block
	ns := d.Time.UnixNano()
	if w.segRecords == 0 || ns < w.segMin {
		w.segMin = ns
	}
	if w.segRecords == 0 || ns > w.segMax {
		w.segMax = ns
	}
	w.segRecords++
	w.n++
	if w.m != nil {
		w.m.records.Inc()
	}
	if len(w.block) >= w.blockBytes {
		if err := w.flushBlock(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// Count returns the number of datagrams appended so far.
func (w *Writer) Count() uint64 { return w.n }

// Close finishes the final segment, writes the MANIFEST and closes the
// spool. The writer cannot be reused.
func (w *Writer) Close() error {
	if w.f == nil {
		return w.err
	}
	err := w.finishSegment()
	if err == nil {
		err = w.writeManifest()
	}
	if w.err == nil {
		w.err = errors.New("spool: writer closed")
	}
	return err
}

// writeManifest writes the MANIFEST atomically (temp file + rename) so a
// crash mid-write leaves either the old state or the new one, never a
// torn manifest that parses.
func (w *Writer) writeManifest() error {
	var buf []byte
	buf = append(buf, manifestMagic...)
	buf = append(buf, '\n')
	for _, s := range w.manifest {
		var minNS, maxNS int64
		if s.Records > 0 {
			minNS, maxNS = s.Min.UnixNano(), s.Max.UnixNano()
		}
		buf = fmt.Appendf(buf, "segment %s version=%d codec=%s records=%d min=%d max=%d raw=%d stored=%d crc=%08x\n",
			s.Name, s.Version, s.Codec, s.Records, minNS, maxNS, s.RawBytes, s.StoredBytes, s.CRC)
	}
	buf = fmt.Appendf(buf, "end segments=%d records=%d\n", len(w.manifest), w.n)
	path := filepath.Join(w.dir, manifestName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	return nil
}

// segments lists dir's segment files in replay order.
func segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("spool: %w", err)
	}
	var segs []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == segmentExt {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(segs)
	return segs, nil
}
