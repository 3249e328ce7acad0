package spool

import (
	"encoding/binary"
	"fmt"

	"booters/internal/ingest"
)

// RecordHeaderSize is the size in bytes of the fixed record header shared
// by every spool format version: receive time, victim address, port,
// sensor and payload length, followed by the raw payload. The same record
// encoding is the unit the wire protocol's batch frames carry, which is
// why it is exported here rather than duplicated there.
const RecordHeaderSize = recordHeaderSize

// MaxRecordPayload is the largest payload a record can carry: the header
// stores the length in 16 bits.
const MaxRecordPayload = 0xFFFF

// AppendRecord validates d and appends its record encoding (the fixed
// 32-byte header followed by the raw payload) to dst, returning the
// extended slice. It is the single encoder behind both the on-disk spool
// block format and the wire protocol's batch frames.
func AppendRecord(dst []byte, d ingest.Datagram) ([]byte, error) {
	if !d.Victim.IsValid() {
		return dst, fmt.Errorf("spool: datagram has no victim address")
	}
	if len(d.Payload) > MaxRecordPayload {
		return dst, fmt.Errorf("spool: payload of %d bytes exceeds the 64 KiB record limit", len(d.Payload))
	}
	if d.Port < 0 || d.Port > 0xFFFF {
		return dst, fmt.Errorf("spool: port %d out of range", d.Port)
	}
	if d.Sensor < 0 || int64(d.Sensor) > 0xFFFFFFFF {
		return dst, fmt.Errorf("spool: sensor %d out of range", d.Sensor)
	}
	var b [recordHeaderSize]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(d.Time.UnixNano()))
	v16 := d.Victim.As16()
	copy(b[8:24], v16[:])
	binary.BigEndian.PutUint16(b[24:26], uint16(d.Port))
	binary.BigEndian.PutUint32(b[26:30], uint32(d.Sensor))
	binary.BigEndian.PutUint16(b[30:32], uint16(len(d.Payload)))
	dst = append(dst, b[:]...)
	dst = append(dst, d.Payload...)
	return dst, nil
}

// DecodeRecord decodes one record from the front of b, returning the
// datagram and the number of bytes consumed. The datagram's payload
// aliases b — copy it if it must outlive the buffer. A buffer too short
// for the header or the declared payload returns an error without
// consuming anything; the declared length is bounded by the 16-bit header
// field, so a hostile length can never force a large allocation.
func DecodeRecord(b []byte) (ingest.Datagram, int, error) {
	var d ingest.Datagram
	n, err := decodeRecordInto(b, &d)
	if err != nil {
		return ingest.Datagram{}, 0, err
	}
	return d, n, nil
}

// decodeRecordInto is DecodeRecord decoding into a caller-owned datagram,
// which it overwrites in full; on error d is left in an unspecified state.
func decodeRecordInto(b []byte, d *ingest.Datagram) (int, error) {
	if len(b) < recordHeaderSize {
		return 0, fmt.Errorf("spool: record header needs %d bytes, have %d", recordHeaderSize, len(b))
	}
	plen := decodeRecordHeader(b, d)
	n := recordHeaderSize + plen
	if len(b) < n {
		return 0, fmt.Errorf("spool: record payload needs %d bytes, have %d", plen, len(b)-recordHeaderSize)
	}
	if plen > 0 {
		d.Payload = b[recordHeaderSize:n:n]
	}
	return n, nil
}
