package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"booters/internal/ingest"
	"booters/internal/spool"
)

// Magic opens every Hello payload, so a collector can refuse a
// mis-directed client before trusting a single field.
const Magic = "BOOTWIR1"

// ProtocolVersion is the one protocol revision this package speaks.
// Sensor and collector ship together, so each requires the other's
// Hello or Welcome to carry exactly this version; anything else is
// rejected with CodeVersion.
const ProtocolVersion uint16 = 2

// MaxTokenLen caps the Hello auth token.
const MaxTokenLen = 256

// MaxRejectMsg caps a Reject frame's diagnostic message.
const MaxRejectMsg = 512

// Reject codes. CodeAuth and CodeVersion are permanent: the sensor must
// not redial with the same credentials or binary. The rest are
// per-session; a sensor may redial and resume.
const (
	CodeAuth     uint16 = 1 // bad token
	CodeVersion  uint16 = 2 // unsupported protocol version
	CodeBadFrame uint16 = 3 // frame or message violated the protocol
	CodeGap      uint16 = 4 // batch base beyond the acknowledged offset
	CodeKicked   uint16 = 5 // a newer session for the same sensor took over
	CodeShutdown uint16 = 6 // collector or pipeline is shutting down
)

// codeName names a reject code for logs and errors.
func codeName(code uint16) string {
	switch code {
	case CodeAuth:
		return "auth"
	case CodeVersion:
		return "version"
	case CodeBadFrame:
		return "bad-frame"
	case CodeGap:
		return "gap"
	case CodeKicked:
		return "kicked"
	case CodeShutdown:
		return "shutdown"
	}
	return fmt.Sprintf("code%d", code)
}

// RejectError is a peer's Reject frame surfaced as an error.
type RejectError struct {
	// Code is the reject code (CodeAuth .. CodeShutdown).
	Code uint16
	// Msg is the peer's diagnostic message.
	Msg string
}

// Error renders the reject code and diagnostic.
func (e *RejectError) Error() string {
	return fmt.Sprintf("wire: rejected (%s): %s", codeName(e.Code), e.Msg)
}

// Permanent reports whether redialing with the same configuration can
// ever succeed. Auth and version rejects are configuration errors;
// everything else is session-scoped.
func (e *RejectError) Permanent() bool {
	return e.Code == CodeAuth || e.Code == CodeVersion
}

// Hello is the sensor's opening frame: magic, protocol version, its
// sensor ID and an auth token.
type Hello struct {
	// Version is the protocol revision the sensor speaks.
	Version uint16
	// Sensor identifies the sensor; resume offsets are keyed by it.
	Sensor uint32
	// Token is the shared secret (at most MaxTokenLen bytes).
	Token []byte
}

// AppendHello encodes h after dst.
func AppendHello(dst []byte, h Hello) ([]byte, error) {
	if len(h.Token) > MaxTokenLen {
		return dst, fmt.Errorf("%w: token %d bytes exceeds cap %d", ErrProtocol, len(h.Token), MaxTokenLen)
	}
	dst = append(dst, Magic...)
	dst = binary.BigEndian.AppendUint16(dst, h.Version)
	dst = binary.BigEndian.AppendUint32(dst, h.Sensor)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(h.Token)))
	return append(dst, h.Token...), nil
}

// DecodeHello decodes a Hello payload. The token aliases b.
func DecodeHello(b []byte) (Hello, error) {
	const fixed = len(Magic) + 2 + 4 + 2
	if len(b) < fixed {
		return Hello{}, fmt.Errorf("%w: hello needs %d bytes, have %d", ErrProtocol, fixed, len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return Hello{}, fmt.Errorf("%w: bad hello magic", ErrProtocol)
	}
	var h Hello
	h.Version = binary.BigEndian.Uint16(b[8:10])
	h.Sensor = binary.BigEndian.Uint32(b[10:14])
	tlen := int(binary.BigEndian.Uint16(b[14:16]))
	if tlen > MaxTokenLen {
		return Hello{}, fmt.Errorf("%w: token claims %d bytes, cap is %d", ErrProtocol, tlen, MaxTokenLen)
	}
	if len(b) != fixed+tlen {
		return Hello{}, fmt.Errorf("%w: hello is %d bytes, token length says %d", ErrProtocol, len(b), fixed+tlen)
	}
	h.Token = b[fixed : fixed+tlen : fixed+tlen]
	return h, nil
}

// Welcome is the collector's handshake acceptance: the version it
// speaks and the cumulative record offset the sensor must resume from.
type Welcome struct {
	// Version is the protocol revision the collector speaks.
	Version uint16
	// Resume is the cumulative record offset the sensor must ship from.
	Resume uint64
}

// AppendWelcome encodes w after dst.
func AppendWelcome(dst []byte, w Welcome) []byte {
	dst = binary.BigEndian.AppendUint16(dst, w.Version)
	return binary.BigEndian.AppendUint64(dst, w.Resume)
}

// DecodeWelcome decodes a Welcome payload.
func DecodeWelcome(b []byte) (Welcome, error) {
	if len(b) != 10 {
		return Welcome{}, fmt.Errorf("%w: welcome is %d bytes, want 10", ErrProtocol, len(b))
	}
	return Welcome{
		Version: binary.BigEndian.Uint16(b[0:2]),
		Resume:  binary.BigEndian.Uint64(b[2:10]),
	}, nil
}

// Ack carries the collector's cumulative acknowledged offset: every
// record before Offset has been handed to the pipeline and will never
// be asked for again.
type Ack struct {
	// Offset is the cumulative acknowledged record offset.
	Offset uint64
}

// AppendAck encodes a after dst.
func AppendAck(dst []byte, a Ack) []byte {
	return binary.BigEndian.AppendUint64(dst, a.Offset)
}

// DecodeAck decodes an Ack payload.
func DecodeAck(b []byte) (Ack, error) {
	if len(b) != 8 {
		return Ack{}, fmt.Errorf("%w: ack is %d bytes, want 8", ErrProtocol, len(b))
	}
	return Ack{Offset: binary.BigEndian.Uint64(b[0:8])}, nil
}

// MarkUnset is the Heartbeat mark meaning "no stream-time promise yet":
// the sensor has not shipped a record this run.
const MarkUnset = math.MinInt64

// Heartbeat keeps an idle session alive and carries the sensor's
// stream-time promise: every record it will ever send after this frame
// is stamped at or after Mark (UnixNano), so the collector can advance
// the session's low-watermark source even when no data flows.
type Heartbeat struct {
	// Mark is the stream-time promise in Unix nanoseconds, or MarkUnset.
	Mark int64
}

// AppendHeartbeat encodes h after dst.
func AppendHeartbeat(dst []byte, h Heartbeat) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(h.Mark))
}

// DecodeHeartbeat decodes a Heartbeat payload.
func DecodeHeartbeat(b []byte) (Heartbeat, error) {
	if len(b) != 8 {
		return Heartbeat{}, fmt.Errorf("%w: heartbeat is %d bytes, want 8", ErrProtocol, len(b))
	}
	return Heartbeat{Mark: int64(binary.BigEndian.Uint64(b[0:8]))}, nil
}

// Goodbye announces a clean end of stream at a final cumulative offset.
// The collector answers with a final Ack so the sensor can verify
// nothing is outstanding before hanging up.
type Goodbye struct {
	// Final is the sensor's final cumulative record offset.
	Final uint64
}

// AppendGoodbye encodes g after dst.
func AppendGoodbye(dst []byte, g Goodbye) []byte {
	return binary.BigEndian.AppendUint64(dst, g.Final)
}

// DecodeGoodbye decodes a Goodbye payload.
func DecodeGoodbye(b []byte) (Goodbye, error) {
	if len(b) != 8 {
		return Goodbye{}, fmt.Errorf("%w: goodbye is %d bytes, want 8", ErrProtocol, len(b))
	}
	return Goodbye{Final: binary.BigEndian.Uint64(b[0:8])}, nil
}

// Reject is the collector's terminal refusal: a code and a short
// human-readable diagnostic. The session is over once it is sent.
type Reject struct {
	// Code is one of CodeAuth .. CodeShutdown.
	Code uint16
	// Msg is a short human-readable diagnostic.
	Msg string
}

// AppendReject encodes r after dst, truncating the message to its cap
// rather than failing — a reject is the last thing a session says and
// must always encode.
func AppendReject(dst []byte, r Reject) []byte {
	msg := r.Msg
	if len(msg) > MaxRejectMsg {
		msg = msg[:MaxRejectMsg]
	}
	dst = binary.BigEndian.AppendUint16(dst, r.Code)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// DecodeReject decodes a Reject payload.
func DecodeReject(b []byte) (Reject, error) {
	if len(b) < 4 {
		return Reject{}, fmt.Errorf("%w: reject needs 4 bytes, have %d", ErrProtocol, len(b))
	}
	var r Reject
	r.Code = binary.BigEndian.Uint16(b[0:2])
	mlen := int(binary.BigEndian.Uint16(b[2:4]))
	if mlen > MaxRejectMsg {
		return Reject{}, fmt.Errorf("%w: reject message claims %d bytes, cap is %d", ErrProtocol, mlen, MaxRejectMsg)
	}
	if len(b) != 4+mlen {
		return Reject{}, fmt.Errorf("%w: reject is %d bytes, message length says %d", ErrProtocol, len(b), 4+mlen)
	}
	r.Msg = string(b[4 : 4+mlen])
	return r, nil
}

// BatchHeader prefixes a Batch payload: the cumulative offset of the
// batch's first record and how many records follow. Records use the
// spool record encoding (spool.AppendRecord / spool.DecodeRecord).
type BatchHeader struct {
	// Base is the cumulative offset of the batch's first record.
	Base uint64
	// Count is the number of records that follow the header.
	Count uint32
	// TraceID and SpanID carry the sensor-side trace context of this
	// batch (zero means the batch is unsampled). The collector
	// parents its own receive span under them, which is what stitches a
	// cross-process sensor→snapshot trace together.
	TraceID, SpanID uint64
	// SendUnixNanos is the sensor's wall clock at frame send (0 means
	// unknown), the start of the wire-send→ingest-apply
	// freshness measurement. Sensor and collector clocks are assumed
	// loosely synchronised; the histogram absorbs modest skew.
	SendUnixNanos int64
}

// batchHeaderLen is the encoded BatchHeader length.
const batchHeaderLen = 36

// AppendBatchHeader encodes h after dst. The caller appends Count
// records with spool.AppendRecord and frames the result as FrameBatch.
// version is the session's protocol version, which is always
// ProtocolVersion: the header has a single layout.
func AppendBatchHeader(dst []byte, h BatchHeader, version uint16) []byte {
	dst = binary.BigEndian.AppendUint64(dst, h.Base)
	dst = binary.BigEndian.AppendUint32(dst, h.Count)
	dst = binary.BigEndian.AppendUint64(dst, h.TraceID)
	dst = binary.BigEndian.AppendUint64(dst, h.SpanID)
	return binary.BigEndian.AppendUint64(dst, uint64(h.SendUnixNanos))
}

// DecodeBatchHeader decodes a Batch payload's header and returns the
// record bytes that follow it. Any version other than ProtocolVersion
// fails with ErrProtocol. The declared count is not yet verified
// against the record bytes — DecodeBatchRecords does that
// incrementally, so a hostile count can never force an allocation.
func DecodeBatchHeader(b []byte, version uint16) (BatchHeader, []byte, error) {
	if version != ProtocolVersion {
		return BatchHeader{}, nil, fmt.Errorf("%w: batch header at version %d, speak %d", ErrProtocol, version, ProtocolVersion)
	}
	if len(b) < batchHeaderLen {
		return BatchHeader{}, nil, fmt.Errorf("%w: batch header needs %d bytes, have %d", ErrProtocol, batchHeaderLen, len(b))
	}
	h := BatchHeader{
		Base:          binary.BigEndian.Uint64(b[0:8]),
		Count:         binary.BigEndian.Uint32(b[8:12]),
		TraceID:       binary.BigEndian.Uint64(b[12:20]),
		SpanID:        binary.BigEndian.Uint64(b[20:28]),
		SendUnixNanos: int64(binary.BigEndian.Uint64(b[28:36])),
	}
	return h, b[batchHeaderLen:], nil
}

// DecodeBatchRecords walks the record bytes of a batch, calling fn with
// each record's index (0-based within the batch) and datagram. Record
// payloads alias b. It fails, wrapping ErrProtocol, if the bytes run
// short of the declared count or extend past it; fn's own error stops
// the walk and is returned as-is.
func DecodeBatchRecords(h BatchHeader, b []byte, fn func(i uint32, d ingest.Datagram) error) error {
	for i := uint32(0); i < h.Count; i++ {
		d, n, err := spool.DecodeRecord(b)
		if err != nil {
			return fmt.Errorf("%w: batch record %d/%d: %v", ErrProtocol, i, h.Count, err)
		}
		b = b[n:]
		if fn != nil {
			if err := fn(i, d); err != nil {
				return err
			}
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d bytes after the %d declared batch records", ErrProtocol, len(b), h.Count)
	}
	return nil
}
