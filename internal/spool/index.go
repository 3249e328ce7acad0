package spool

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// SegmentInfo describes one segment file as recorded by its trailer or
// the spool MANIFEST. Min, Max, Records, RawBytes and CRC are only
// trustworthy when Indexed is true; an unindexed segment (one with a
// torn or corrupt trailer) must be scanned in full.
type SegmentInfo struct {
	// Name is the segment's file name within the spool directory.
	Name string
	// Version is the on-disk format version: always 2, the only format
	// there is (0 only for a segment whose magic is unrecognised).
	Version int
	// Codec is the block codec name; empty when the segment header is
	// unreadable.
	Codec string
	// Records is the number of records in the segment.
	Records uint64
	// Min and Max are the smallest and largest record timestamps; both
	// are the zero time when Records is zero or the segment is
	// unindexed.
	Min, Max time.Time
	// RawBytes is the decoded record-stream size in bytes.
	RawBytes uint64
	// StoredBytes is the on-disk block-byte size (including block
	// headers, excluding the segment header and trailer).
	StoredBytes uint64
	// CRC is the IEEE CRC-32 over the segment's block bytes.
	CRC uint32
	// Indexed reports whether the summary fields above were recovered
	// from a verified trailer or manifest entry.
	Indexed bool
}

// overlaps reports whether any record in the segment can fall inside the
// half-open nanosecond window [from, to). Unindexed segments always
// overlap: without a trailer nothing can be ruled out.
func (s *SegmentInfo) overlaps(from, to int64) bool {
	if !s.Indexed {
		return true
	}
	if s.Records == 0 {
		return false
	}
	return s.Max.UnixNano() >= from && s.Min.UnixNano() < to
}

// Index is a spool directory's segment summary, assembled from the
// MANIFEST where it is present and consistent, and from segment trailers
// otherwise. Warnings records every degradation met on the way — a
// corrupt manifest, a stale entry, a torn trailer — so operators see
// exactly how much of the index survives.
type Index struct {
	// Dir is the spool directory the index describes.
	Dir string
	// Segments lists every segment file in replay order.
	Segments []SegmentInfo
	// Warnings lists index degradations in human-readable form; an
	// empty slice means every segment is fully indexed.
	Warnings []string
}

// LoadIndex reads a spool directory's index. It never fails on a corrupt
// MANIFEST or trailer — those degrade to per-segment warnings and
// unindexed entries — and only returns an error when the directory
// itself cannot be listed or a segment cannot be opened.
func LoadIndex(dir string) (*Index, error) {
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	idx := &Index{Dir: dir}
	man, manFound, manWarn := readManifest(dir)
	if manWarn != "" {
		idx.Warnings = append(idx.Warnings, manWarn)
	}
	matched := 0
	for _, path := range segs {
		name := filepath.Base(path)
		st, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("spool: %w", err)
		}
		if e, ok := man[name]; ok {
			matched++
			if int64(e.StoredBytes)+segHeaderSize+trailerSize == st.Size() {
				idx.Segments = append(idx.Segments, e)
				continue
			}
			idx.Warnings = append(idx.Warnings,
				fmt.Sprintf("MANIFEST entry for %s does not match its file size; reading its trailer", name))
		} else if man != nil {
			idx.Warnings = append(idx.Warnings,
				fmt.Sprintf("segment %s is missing from the MANIFEST; reading its trailer", name))
		}
		info, warn, err := readTrailerInfo(path, st.Size())
		if err != nil {
			return nil, err
		}
		if warn != "" {
			idx.Warnings = append(idx.Warnings, warn)
		}
		idx.Segments = append(idx.Segments, info)
	}
	if man != nil && matched < len(man) {
		idx.Warnings = append(idx.Warnings,
			fmt.Sprintf("MANIFEST lists %d segment(s) not present on disk", len(man)-matched))
	}
	if !manFound && manWarn == "" && len(idx.Segments) > 0 {
		idx.Warnings = append(idx.Warnings, "MANIFEST missing; index read from segment trailers")
	}
	return idx, nil
}

// readManifest parses dir's MANIFEST. It returns the parsed entries by
// segment name, whether a manifest file was present at all, and a
// warning ("" when none) describing why a present manifest was unusable.
// Any parse anomaly voids the whole manifest: a half-trusted index is
// worse than falling back to trailers.
func readManifest(dir string) (map[string]SegmentInfo, bool, string) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, false, ""
	}
	bad := func(why string) (map[string]SegmentInfo, bool, string) {
		return nil, true, fmt.Sprintf("MANIFEST corrupt (%s); falling back to segment trailers", why)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 2 || lines[0] != manifestMagic {
		return bad("bad header")
	}
	entries := make(map[string]SegmentInfo)
	var total uint64
	for _, line := range lines[1 : len(lines)-1] {
		fields := strings.Fields(line)
		if len(fields) != 10 || fields[0] != "segment" {
			return bad("malformed segment line")
		}
		info := SegmentInfo{Name: fields[1], Indexed: true}
		var minNS, maxNS int64
		for _, kv := range fields[2:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return bad("malformed segment line")
			}
			var err error
			switch k {
			case "version":
				info.Version, err = strconv.Atoi(v)
			case "codec":
				info.Codec = v
			case "records":
				info.Records, err = strconv.ParseUint(v, 10, 64)
			case "min":
				minNS, err = strconv.ParseInt(v, 10, 64)
			case "max":
				maxNS, err = strconv.ParseInt(v, 10, 64)
			case "raw":
				info.RawBytes, err = strconv.ParseUint(v, 10, 64)
			case "stored":
				info.StoredBytes, err = strconv.ParseUint(v, 10, 64)
			case "crc":
				var crc uint64
				crc, err = strconv.ParseUint(v, 16, 32)
				info.CRC = uint32(crc)
			default:
				return bad("unknown field " + k)
			}
			if err != nil {
				return bad("unparsable field " + k)
			}
		}
		if info.Version != 2 {
			return bad("unsupported segment version")
		}
		if info.Records > 0 {
			info.Min = time.Unix(0, minNS).UTC()
			info.Max = time.Unix(0, maxNS).UTC()
			if maxNS < minNS {
				return bad("min/max inverted")
			}
		}
		if _, dup := entries[info.Name]; dup {
			return bad("duplicate segment " + info.Name)
		}
		entries[info.Name] = info
		total += info.Records
	}
	end := lines[len(lines)-1]
	var endSegs int
	var endRecords uint64
	if n, err := fmt.Sscanf(end, "end segments=%d records=%d", &endSegs, &endRecords); n != 2 || err != nil {
		return bad("end line missing (truncated manifest)")
	}
	if endSegs != len(entries) || endRecords != total {
		return bad("end-line totals disagree with entries")
	}
	return entries, true, ""
}

// readTrailerInfo summarises one segment from its header and trailer
// without reading its blocks. A segment whose magic is unrecognised, or
// whose trailer is missing or fails its checksum, is returned unindexed
// with a warning, and replay will scan it sequentially instead (where a
// bad magic then fails as corrupt).
func readTrailerInfo(path string, size int64) (SegmentInfo, string, error) {
	info := SegmentInfo{Name: filepath.Base(path)}
	f, err := os.Open(path)
	if err != nil {
		return info, "", fmt.Errorf("spool: %w", err)
	}
	defer f.Close()
	var head [segHeaderSize]byte
	if size < 8 {
		return info, fmt.Sprintf("segment %s is shorter than its magic; will attempt a scan", info.Name), nil
	}
	if _, err := f.ReadAt(head[:8], 0); err != nil {
		return info, "", fmt.Errorf("spool: %w", err)
	}
	if string(head[:8]) != magicV2 {
		return info, fmt.Sprintf("segment %s has an unrecognised magic; will attempt a scan", info.Name), nil
	}
	info.Version = 2
	degraded := fmt.Sprintf("segment %s: trailer missing or corrupt; replay will scan it without an index", info.Name)
	if size < segHeaderSize+trailerSize {
		return info, degraded, nil
	}
	if _, err := f.ReadAt(head[8:segHeaderSize], 8); err != nil {
		return info, "", fmt.Errorf("spool: %w", err)
	}
	if c, err := codecByID(head[8]); err == nil {
		info.Codec = c.Name()
	}
	var tr [trailerSize]byte
	if _, err := f.ReadAt(tr[:], size-trailerSize); err != nil {
		return info, "", fmt.Errorf("spool: %w", err)
	}
	if string(tr[:8]) != trailerMagic ||
		crc32.ChecksumIEEE(tr[:44]) != binary.BigEndian.Uint32(tr[44:48]) {
		return info, degraded, nil
	}
	info.Records = binary.BigEndian.Uint64(tr[8:16])
	if info.Records > 0 {
		info.Min = time.Unix(0, int64(binary.BigEndian.Uint64(tr[16:24]))).UTC()
		info.Max = time.Unix(0, int64(binary.BigEndian.Uint64(tr[24:32]))).UTC()
	}
	info.RawBytes = binary.BigEndian.Uint64(tr[32:40])
	info.CRC = binary.BigEndian.Uint32(tr[40:44])
	info.StoredBytes = uint64(size - segHeaderSize - trailerSize)
	info.Indexed = true
	return info, "", nil
}
