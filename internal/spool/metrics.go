package spool

// Spool instrumentation. Both Options (writer) and ReplayOptions carry an
// optional *obs.Registry; nil keeps the package metrics-free. The write
// path counts records, bytes and segments from the one goroutine that
// owns the Writer; the replay path counts from the one goroutine that
// delivers records, and books each segment — torn or not — as soon as
// its records have been delivered, not at end of run, which is what lets
// a serving layer watch a live replay degrade.

import (
	"booters/internal/obs"
)

// writerMetrics holds the write-path instrument handles.
type writerMetrics struct {
	records  *obs.Counter
	rawBytes *obs.Counter
	stored   *obs.Counter
	segments *obs.Counter
}

// newWriterMetrics registers the write-path families on reg.
func newWriterMetrics(reg *obs.Registry) *writerMetrics {
	return &writerMetrics{
		records: reg.Counter("booters_spool_append_records_total",
			"Datagrams appended to the spool."),
		rawBytes: reg.Counter("booters_spool_append_bytes_total",
			"Bytes appended to the spool, by kind.", obs.L("kind", "raw")),
		stored: reg.Counter("booters_spool_append_bytes_total",
			"Bytes appended to the spool, by kind.", obs.L("kind", "stored")),
		segments: reg.Counter("booters_spool_segments_written_total",
			"Segment files finished (trailer written and booked)."),
	}
}

// replayMetrics holds the replay-path instrument handles.
type replayMetrics struct {
	records   *obs.Counter
	filtered  *obs.Counter
	segsRead  *obs.Counter
	segsSkip  *obs.Counter
	torn      *obs.Counter
	unindexed *obs.Counter
}

// newReplayMetrics registers the replay-path families on reg.
func newReplayMetrics(reg *obs.Registry) *replayMetrics {
	return &replayMetrics{
		records: reg.Counter("booters_spool_replay_records_total",
			"Records delivered by replay."),
		filtered: reg.Counter("booters_spool_replay_filtered_total",
			"Records read but outside the requested replay window."),
		segsRead: reg.Counter("booters_spool_replay_segments_total",
			"Segments scanned versus pruned by the index.", obs.L("result", "read")),
		segsSkip: reg.Counter("booters_spool_replay_segments_total",
			"Segments scanned versus pruned by the index.", obs.L("result", "skipped")),
		torn: reg.Counter("booters_spool_replay_torn_total",
			"Segments that lost records to truncation or corruption during replay."),
		unindexed: reg.Counter("booters_spool_replay_unindexed_total",
			"Unindexed segments scanned in full (no trusted trailer)."),
	}
}
