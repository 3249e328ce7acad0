package booters

import (
	"booters/internal/ingest"
	"booters/internal/wire"
)

// ListenWire starts a networked sensor collector on addr (host:port;
// port 0 picks a free one, reported by the returned collector's Addr)
// feeding every accepted record into the ingestor. Sensors authenticate
// with the shared token, resume exactly from their last acknowledged
// offset after a disconnect, and are reaped — their low-watermark
// source closed — when they go silent. A fleet of sensors delivers
// records in per-sensor time order but interleaved arbitrarily across
// sensors, so the ingestor should be order-tolerant
// (ingest.Config.Unordered) unless a single sensor is the only feed. The
// collector's booters_wire_* metric families land in the ingestor's
// registry, alongside the pipeline's own. Close the collector before
// closing the ingestor. See docs/WIRE_PROTOCOL.md for the protocol.
func ListenWire(in *ingest.Ingestor, addr, token string) (*wire.Collector, error) {
	return wire.Listen(addr, wire.CollectorConfig{
		Ingest:  in,
		Token:   token,
		Metrics: in.Metrics(),
		// Adopt the pipeline's tracer (nil when tracing is off) so wire
		// batch spans parent the ingest spans they unlock.
		Trace: in.Trace(),
	})
}

// ShipSpool streams a recorded spool directory (RecordSpool, or a
// sensor's local capture) to a collector at addr as the given sensor
// ID, and returns once the collector has acknowledged the final record.
// Connection loss redials with exponential backoff and resumes from the
// collector's last acknowledged offset — the spool's segment index
// makes the seek cheap — so a flaky link costs retransmission, never
// loss or duplication. A permanent reject (bad token, version mismatch)
// returns immediately with a *wire.RejectError.
func ShipSpool(addr, token string, sensor uint32, dir string) (wire.ShipReport, error) {
	feed := wire.NewSpoolFeed(dir)
	defer feed.Close()
	return wire.Ship(wire.SensorConfig{
		Addr:   addr,
		Sensor: sensor,
		Token:  token,
		Feed:   feed,
	})
}
