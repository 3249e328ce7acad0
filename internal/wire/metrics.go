package wire

import (
	"strconv"
	"time"

	"booters/internal/obs"
)

// collectorMetrics instruments the collector side. All hooks are
// nil-safe: with no registry configured every call is a nil-receiver
// no-op, keeping the hot path free of branches on the caller's side.
type collectorMetrics struct {
	sessions     *obs.Gauge   // open sessions right now
	sessionsOpen *obs.Counter // sessions accepted (post-handshake)
	reaped       *obs.Counter // sessions closed by read-deadline expiry
	authFail     *obs.Counter // handshakes refused (auth, version, magic)
	resumes      *obs.Counter // sessions welcomed at a non-zero offset
	records      *obs.Counter // records handed to the pipeline
	dups         *obs.Counter // overlap records skipped by offset dedup
	bytesIn      *obs.Counter
	bytesOut     *obs.Counter
	fresh        *obs.Histogram // wire-send → ingest-apply wall latency
	framesIn     map[FrameType]*obs.Counter
	framesOut    map[FrameType]*obs.Counter
	reg          *obs.Registry
}

// newCollectorMetrics registers the collector's metric families on r,
// or returns nil for a nil registry.
func newCollectorMetrics(r *obs.Registry) *collectorMetrics {
	if r == nil {
		return nil
	}
	m := &collectorMetrics{
		sessions:     r.Gauge("booters_wire_sessions", "Open sensor sessions."),
		sessionsOpen: r.Counter("booters_wire_sessions_total", "Sensor sessions accepted since start."),
		reaped:       r.Counter("booters_wire_sessions_reaped_total", "Sessions closed because the sensor went silent past the deadline."),
		authFail:     r.Counter("booters_wire_auth_failures_total", "Handshakes refused for bad magic, version or token."),
		resumes:      r.Counter("booters_wire_resumes_total", "Sessions welcomed at a non-zero resume offset."),
		records:      r.Counter("booters_wire_records_total", "Batch records handed to the ingest pipeline."),
		dups:         r.Counter("booters_wire_records_dup_total", "Overlap records skipped by cumulative-offset dedup."),
		bytesIn:      r.Counter("booters_wire_bytes_total", "Frame bytes by direction.", obs.L("dir", "in")),
		bytesOut:     r.Counter("booters_wire_bytes_total", "Frame bytes by direction.", obs.L("dir", "out")),
		fresh: r.Histogram("booters_freshness_wire_to_apply_seconds",
			"Wall latency from a sensor stamping a batch frame at send to the collector finishing its apply (assumes loosely synchronised clocks)."),
		framesIn:  make(map[FrameType]*obs.Counter, len(frameTypes)),
		framesOut: make(map[FrameType]*obs.Counter, len(frameTypes)),
		reg:       r,
	}
	for _, t := range frameTypes {
		m.framesIn[t] = r.Counter("booters_wire_frames_total", "Frames by direction and type.",
			obs.L("dir", "in"), obs.L("type", t.String()))
		m.framesOut[t] = r.Counter("booters_wire_frames_total", "Frames by direction and type.",
			obs.L("dir", "out"), obs.L("type", t.String()))
	}
	return m
}

// frameIn books one received frame and its bytes.
func (m *collectorMetrics) frameIn(t FrameType, bytes int) {
	if m == nil {
		return
	}
	if c, ok := m.framesIn[t]; ok {
		c.Inc()
	}
	m.bytesIn.Add(uint64(bytes))
}

// frameOut books one sent frame and its bytes.
func (m *collectorMetrics) frameOut(t FrameType, bytes int) {
	if m == nil {
		return
	}
	if c, ok := m.framesOut[t]; ok {
		c.Inc()
	}
	m.bytesOut.Add(uint64(bytes))
}

// sessionOpen books an accepted session, resumed or fresh.
func (m *collectorMetrics) sessionOpen(resumed bool) {
	if m == nil {
		return
	}
	m.sessions.Add(1)
	m.sessionsOpen.Inc()
	if resumed {
		m.resumes.Inc()
	}
}

// sessionClose books a session's end; reaped means the read deadline
// expired on a silent sensor.
func (m *collectorMetrics) sessionClose(reaped bool) {
	if m == nil {
		return
	}
	m.sessions.Add(-1)
	if reaped {
		m.reaped.Inc()
	}
}

// authFailure books a refused handshake.
func (m *collectorMetrics) authFailure() {
	if m == nil {
		return
	}
	m.authFail.Inc()
}

// batch books one ingested batch: fresh records, dedup-skipped overlap,
// and the sensor's new acknowledged offset.
func (m *collectorMetrics) batch(sensor uint32, fresh, dup uint64, offset uint64) {
	if m == nil {
		return
	}
	m.records.Add(fresh)
	if dup > 0 {
		m.dups.Add(dup)
	}
	m.reg.Gauge("booters_wire_acked_offset", "Cumulative acknowledged record offset per sensor.",
		obs.L("sensor", strconv.FormatUint(uint64(sensor), 10))).Set(int64(offset))
}

// freshness books one wire-send→ingest-apply latency observation.
// Non-positive durations (clock skew putting the send "in the future")
// are dropped rather than folded into the first bucket.
func (m *collectorMetrics) freshness(d time.Duration) {
	if m == nil || d <= 0 {
		return
	}
	m.fresh.Observe(d)
}

// sessionGauges (re)points the per-sensor session gauges at st. Called
// at every session open; GaugeFunc re-registration replaces the
// callback, so a reconnect just rewires the closures onto the same
// persistent state.
func (m *collectorMetrics) sessionGauges(sensor uint32, st *sensorState) {
	if m == nil {
		return
	}
	id := obs.L("sensor", strconv.FormatUint(uint64(sensor), 10))
	m.reg.GaugeFunc("booters_wire_session_acked_offset",
		"Cumulative acknowledged record offset per sensor, read live at scrape.",
		func() float64 { return float64(st.offset.Load()) }, id)
	m.reg.GaugeFunc("booters_wire_session_mark_seconds",
		"Newest stream time promised by the sensor's heartbeats and batches, as unix seconds (0 while unknown).",
		func() float64 {
			mk := st.mark.Load()
			if mk == MarkUnset {
				return 0
			}
			return float64(mk) / 1e9
		}, id)
	m.reg.GaugeFunc("booters_wire_session_age_seconds",
		"Seconds since the sensor's most recent session passed handshake.",
		func() float64 {
			opened := st.opened.Load()
			if opened == 0 {
				return 0
			}
			return time.Since(time.Unix(0, opened)).Seconds()
		}, id)
}

// sensorMetrics instruments the shipping side. The family names carry a
// sensor_ prefix so a test running sensor and collector in one process
// can point both at the same registry without colliding.
type sensorMetrics struct {
	dials    *obs.Counter
	resumes  *obs.Counter
	batches  *obs.Counter
	records  *obs.Counter
	bytesOut *obs.Counter
	bytesIn  *obs.Counter
	acked    *obs.Gauge
}

// newSensorMetrics registers the sensor's metric families on r, or
// returns nil for a nil registry.
func newSensorMetrics(r *obs.Registry, sensor uint32) *sensorMetrics {
	if r == nil {
		return nil
	}
	id := obs.L("sensor", strconv.FormatUint(uint64(sensor), 10))
	return &sensorMetrics{
		dials:    r.Counter("booters_wire_sensor_dials_total", "Connection attempts.", id),
		resumes:  r.Counter("booters_wire_sensor_resumes_total", "Reconnects that resumed a partially shipped stream.", id),
		batches:  r.Counter("booters_wire_sensor_batches_total", "Batch frames sent.", id),
		records:  r.Counter("booters_wire_sensor_records_total", "Records sent, including any resent after reconnect.", id),
		bytesOut: r.Counter("booters_wire_sensor_bytes_total", "Frame bytes by direction.", id, obs.L("dir", "out")),
		bytesIn:  r.Counter("booters_wire_sensor_bytes_total", "Frame bytes by direction.", id, obs.L("dir", "in")),
		acked:    r.Gauge("booters_wire_sensor_acked_offset", "Last offset the collector acknowledged.", id),
	}
}

// dial books one connection attempt.
func (m *sensorMetrics) dial() {
	if m == nil {
		return
	}
	m.dials.Inc()
}

// resume books one resumed session.
func (m *sensorMetrics) resume() {
	if m == nil {
		return
	}
	m.resumes.Inc()
}

// sent books one sent batch frame; its bytes are booked by sentBytes at
// the write.
func (m *sensorMetrics) sent(records int) {
	if m == nil {
		return
	}
	m.batches.Inc()
	m.records.Add(uint64(records))
}

// sentBytes books outbound frame bytes.
func (m *sensorMetrics) sentBytes(bytes int) {
	if m == nil {
		return
	}
	m.bytesOut.Add(uint64(bytes))
}

// ack books an acknowledged offset and the ack frame's bytes.
func (m *sensorMetrics) ack(offset uint64, bytes int) {
	if m == nil {
		return
	}
	m.acked.SetMax(int64(offset))
	m.bytesIn.Add(uint64(bytes))
}
