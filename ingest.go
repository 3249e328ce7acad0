package booters

import (
	"errors"
	"fmt"
	"time"

	"booters/internal/dataset"
	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/its"
	"booters/internal/serve"
	"booters/internal/spool"
)

// NewIngestor starts a streaming honeypot-ingestion pipeline covering the
// paper's five-year panel span with the given shard count (<= 0 means
// GOMAXPROCS). Feed it packets or wire-format datagrams from any number of
// goroutines, then Close it and pass the result through PanelFromIngest to
// run the paper's models on the ingested series.
//
// Optional sinks (ingest.NewTopKSink, ingest.NewNDJSONSink, or your own
// ingest.Sink) receive every closed flow alongside the built-in weekly
// panel; each must be a fresh instance. For order-tolerant flow tables,
// rolling snapshots (Serve), metrics or another span, build the
// pipeline from an ingest.Config with ingest.New instead.
func NewIngestor(shards int, sinks ...ingest.Sink) (*ingest.Ingestor, error) {
	return ingest.New(ingest.Config{
		Shards: shards,
		Start:  dataset.SpanStart,
		End:    dataset.SpanEnd,
		Sinks:  sinks,
	})
}

// Serve attaches a live analytics server to a rolling ingestor (any
// ingest.Config with Rolling set) and starts answering HTTP JSON queries
// on addr (host:port; port 0 picks a free one, reported by the returned
// server's Addr). Queries — current panel, weekly series by
// country/protocol, top-K rankings, on-demand intervention-model fits
// over any week window (memoized per snapshot, using the paper's Table 1
// catalogue) — are served lock-free from the pipeline's latest snapshot
// while ingestion is still running; after the ingestor's Close the
// server keeps answering from the final panel until its own Close.
// A non-empty spoolDir names the capture spool being recorded or
// replayed; the server's /v1/spool endpoint reports its segment index.
// See internal/serve for the endpoint reference.
func Serve(in *ingest.Ingestor, addr, spoolDir string) (*serve.Server, error) {
	return serveWith(in, addr, spoolDir, Table1Interventions())
}

// serveWith is the shared serving harness: bind, subscribe to the
// pipeline's snapshot feed, seed with the current snapshot. The
// intervention catalogue parameterises /v1/model fits — the paper's
// Table 1 for real spans, a scenario manifest's injected effects for
// scenario runs (ServeScenario).
func serveWith(in *ingest.Ingestor, addr, spoolDir string, ivs []its.Intervention) (*serve.Server, error) {
	if !in.Rolling() {
		return nil, errors.New("booters: Serve requires a rolling ingestor (ingest.Config.Rolling)")
	}
	srv := serve.New(serve.Config{
		Ingest:        in,
		Interventions: ivs,
		SpoolDir:      spoolDir,
		// Fold the server's HTTP/model-cache families into the pipeline's
		// registry (when the ingestor carries one), so one /v1/metrics
		// scrape covers ingest, spool and serving together; likewise the
		// pipeline's tracer, so /v1/trace shows serve.query spans in the
		// same flight recorder as the ingest spans they ride on.
		Obs:   in.Metrics(),
		Trace: in.Trace(),
	})
	// Bind before subscribing: a failed Start must not leave a dead
	// server permanently subscribed to the pipeline's snapshot feed.
	if err := srv.Start(addr); err != nil {
		return nil, err
	}
	if err := in.OnSnapshot(srv.Publish); err != nil {
		srv.Close()
		return nil, err
	}
	// Seed with the current snapshot; the store's sequence guard makes
	// this race-free against a concurrent publish.
	if snap := in.Snapshot(); snap != nil {
		srv.Publish(snap)
	}
	return srv, nil
}

// SpoolRecordOptions tunes RecordSpoolWith.
type SpoolRecordOptions struct {
	// Codec names the block compression codec: "none" (or "") and
	// "lz4". Compression roughly halves cold-capture disk footprint at
	// a modest record-time CPU cost; replays decompress transparently.
	Codec string
	// SegmentBytes overrides the 64 MiB segment rotation threshold;
	// <= 0 keeps the default.
	SegmentBytes int64
}

// RecordSpool re-encodes decoded packets as wire-format datagrams and
// records them to an on-disk spool directory, so an expensive capture or
// synthetic market run is generated once and replayed many times (see
// ReplaySpool and ReplaySpoolWindow). It returns the number of datagrams
// recorded. The spool is written uncompressed; use RecordSpoolWith to
// pick a codec.
func RecordSpool(dir string, packets []honeypot.Packet) (uint64, error) {
	return RecordSpoolWith(dir, packets, SpoolRecordOptions{})
}

// RecordSpoolWith is RecordSpool with explicit spool options.
func RecordSpoolWith(dir string, packets []honeypot.Packet, opts SpoolRecordOptions) (uint64, error) {
	codec, err := spool.CodecByName(opts.Codec)
	if err != nil {
		return 0, err
	}
	w, err := spool.Create(dir, spool.Options{SegmentBytes: opts.SegmentBytes, Codec: codec})
	if err != nil {
		return 0, err
	}
	for _, d := range ingest.Datagrams(packets) {
		if err := w.Append(d); err != nil {
			w.Close()
			return w.Count(), err
		}
	}
	return w.Count(), w.Close()
}

// ReplaySpool streams every datagram recorded in the spool directory
// through the ingestor's wire-format decode path and returns the number of
// datagrams read. Datagrams the pipeline rejects (unknown port, malformed
// payload) are counted in its Stats and skipped, mirroring a live sensor
// that logs and keeps capturing; the replay only stops for spool errors or
// a closed ingestor. It is strict: a torn or corrupt segment fails the
// replay. Use ReplaySpoolWindow for time windows, parallel segment
// readers, and replays that tolerate and report corruption instead.
func ReplaySpool(in *ingest.Ingestor, dir string) (uint64, error) {
	var n uint64
	err := spool.Replay(dir, func(d ingest.Datagram) error {
		n++
		if err := in.IngestDatagram(d); errors.Is(err, ingest.ErrClosed) {
			return err
		}
		return nil
	})
	return n, err
}

// SpoolReplayOptions tunes ReplaySpoolWindow.
type SpoolReplayOptions struct {
	// From and To bound the replay to datagrams with From <= Time < To;
	// zero values leave the corresponding side unbounded. Whole
	// segments outside the window are skipped via the spool's index
	// without being opened.
	From, To time.Time
	// Workers is the number of concurrent segment readers decoding the
	// spool; <= 1 reads inline. Records are handed to the pipeline in
	// recorded order regardless of Workers, which is what keeps
	// replayed panels byte-identical to a sequential replay (see
	// ARCHITECTURE.md).
	Workers int
}

// SpoolReplayReport summarises a ReplaySpoolWindow run.
type SpoolReplayReport struct {
	// Datagrams is the number of datagrams delivered to the pipeline.
	Datagrams uint64
	// Filtered is the number of records read but outside [From, To).
	Filtered uint64
	// SegmentsRead and SegmentsSkipped count segments scanned versus
	// pruned via the index.
	SegmentsRead, SegmentsSkipped int
	// DataLoss describes each segment that lost records (or the
	// trailer attesting them) to truncation or corruption; empty means
	// every requested record was delivered from verified bytes.
	DataLoss []string
	// Warnings lists index degradations met on the way: a corrupt or
	// missing MANIFEST, torn trailers, unindexed segments scanned in
	// full.
	Warnings []string
}

// ReplaySpoolWindow replays the spool directory's datagrams inside the
// requested time window through the ingestor, fanning segment decoding
// out to opts.Workers concurrent readers. Corruption never fails the
// replay: complete records before a tear are delivered and the loss is
// reported in the returned report, so one torn segment cannot cost the
// rest of a capture. An order-tolerant ingestor (ingest.Config.Unordered)
// gets the replay registered as a low-watermark source, advanced from the
// segment trailers as segments complete, so flows expire mid-replay even
// when the recording is not time-sorted.
func ReplaySpoolWindow(in *ingest.Ingestor, dir string, opts SpoolReplayOptions) (*SpoolReplayReport, error) {
	replayOpts := spool.ReplayOptions{
		From:    opts.From,
		To:      opts.To,
		Workers: opts.Workers,
		// Replay counters and segment read spans land in the same
		// registry and flight recorder as the ingest families and spans
		// the replay feeds (nil when metrics or tracing are off).
		Metrics: in.Metrics(),
		Trace:   in.Trace(),
	}
	if in.Unordered() {
		src := in.RegisterSource()
		defer src.Close()
		replayOpts.OnWatermark = src.Advance
	}
	stats, err := spool.ReplayWindow(dir, replayOpts, func(d ingest.Datagram) error {
		if err := in.IngestDatagram(d); errors.Is(err, ingest.ErrClosed) {
			return err
		}
		return nil
	})
	rep := &SpoolReplayReport{
		Datagrams:       stats.Records,
		Filtered:        stats.Filtered,
		SegmentsRead:    stats.SegmentsRead,
		SegmentsSkipped: stats.SegmentsSkipped,
		Warnings:        stats.Warnings,
	}
	for _, torn := range stats.Torn {
		rep.DataLoss = append(rep.DataLoss,
			fmt.Sprintf("%s: %s (%d complete records recovered)", torn.Segment, torn.Reason, torn.Records))
	}
	return rep, err
}

// PanelFromIngest bridges a completed ingestion run into a dataset.Panel so
// the ingested stream can feed the models that read the weekly attack
// series: FitGlobalModel, FitCountryModel, Analyze, AnalyzeNCA — and,
// through the country-by-protocol breakdown the pipeline tracks
// incrementally, the Figure 6 protocol-share exhibits. The one field the
// stream cannot know — the booter self-report panel (Figure 7/8) — is left
// empty and still requires the generated dataset.
func PanelFromIngest(res *ingest.Result) *dataset.Panel {
	return &dataset.Panel{Panel: res.Clone()}
}
