// Package serve is the repository's live analytics serving layer: it
// turns the rolling panel snapshots a Config.Rolling ingestion pipeline
// publishes (internal/ingest) into query results — current panel, weekly
// series, top-K rankings, spool index stats, and on-demand intervention
// model fits — while the pipeline is still ingesting, and exposes them
// over a hand-rolled HTTP JSON API.
//
// The design splits cleanly into a write side and a read side joined by
// one atomic pointer. Writers (the ingest pipeline's snapshot callback)
// swap whole immutable snapshots into the Store; readers load the pointer
// and compute answers from a snapshot that can never change under them.
// No query path takes a lock: a million concurrent panel reads cost a
// million atomic loads, and a snapshot swap costs one store regardless of
// reader count. The only mutable shared state beyond the pointer is the
// model-fit memo, which is keyed by snapshot sequence so a swap
// implicitly invalidates every cached fit.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"booters/internal/ingest"
	"booters/internal/its"
	"booters/internal/obs"
	"booters/internal/obs/trace"
	"booters/internal/protocols"
	"booters/internal/spool"
	"booters/internal/timeseries"
)

// ErrNoSnapshot is returned by queries before the first snapshot has been
// published into the store.
var ErrNoSnapshot = errors.New("serve: no snapshot published yet")

// ErrNoSpool is returned by SpoolInfo when the engine was configured
// without a spool directory.
var ErrNoSpool = errors.New("serve: no spool directory configured")

// Store publishes immutable panel snapshots copy-on-write: writers swap
// whole snapshots in, readers load the current one with a single atomic
// pointer read and never take a lock. Snapshots carry strictly increasing
// sequence numbers; Publish ignores stale ones, so racing writers (a live
// publish and a catch-up seed) cannot move the store backwards.
type Store struct {
	cur   atomic.Pointer[ingest.Snapshot]
	swaps atomic.Uint64
}

// Load returns the current snapshot (nil before the first Publish). The
// returned snapshot is immutable and safe to read indefinitely.
func (st *Store) Load() *ingest.Snapshot { return st.cur.Load() }

// Publish swaps snap in if it is newer than the current snapshot, and
// reports whether the swap happened. As an ingest.OnSnapshot subscriber
// it runs on the sealing shard's worker, so it stays O(1) and
// allocation-free.
func (st *Store) Publish(snap *ingest.Snapshot) bool {
	for {
		old := st.cur.Load()
		if old != nil && old.Seq >= snap.Seq {
			return false
		}
		if st.cur.CompareAndSwap(old, snap) {
			st.swaps.Add(1)
			return true
		}
	}
}

// Swaps returns the number of snapshots published so far.
func (st *Store) Swaps() uint64 { return st.swaps.Load() }

// Config tunes an Engine.
type Config struct {
	// Ingest, when set, contributes live pipeline counters (packets and
	// flows so far) to Status while a run is in progress.
	Ingest *ingest.Ingestor
	// Interventions is the candidate catalogue for Model fits; queries
	// fit the subset whose (lag-adjusted) windows start inside the
	// requested span. The facade passes the paper's Table 1 five.
	Interventions []its.Intervention
	// SpoolDir, when set, lets SpoolInfo report the capture store's
	// segment index alongside the live panel.
	SpoolDir string
	// Obs is the metrics registry the engine and server instrument
	// themselves on and that /v1/metrics renders. nil builds a fresh
	// private registry (each Server isolated — what tests want); pass
	// the process registry (obs.Default()) to fold the serving metrics
	// into the same scrape as the pipeline and spool, which also lets
	// Status surface live replay corruption counters.
	Obs *obs.Registry
	// Trace, when non-nil, records a serve.query span per routed HTTP
	// request (one sampling decision each; slow queries are pinned and
	// log-promoted by the tracer) and backs /v1/trace. Share the
	// pipeline's tracer so query spans land in the same flight recorder
	// as ingest spans. nil disables both at one pointer test.
	Trace *trace.Tracer
}

// DefaultStallAfter is the /v1/healthz liveness window: with a pipeline
// attached, a non-final watermark that has not advanced for this long
// reports unhealthy.
const DefaultStallAfter = 2 * time.Minute

// Engine answers analytics queries against the store's current snapshot.
// All query methods are safe for unbounded concurrent use; none of them
// blocks writers.
type Engine struct {
	cfg   Config
	store Store
	reg   *obs.Registry

	models modelCache
}

// NewEngine returns an engine with an empty store; wire snapshots in with
// Publish (typically via ingest.Ingestor.OnSnapshot).
func NewEngine(cfg Config) *Engine {
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	e := &Engine{cfg: cfg, reg: cfg.Obs, models: modelCache{entries: make(map[modelKey]*modelEntry)}}
	e.models.hitsC = e.reg.Counter("booters_model_cache_hits_total",
		"Model fits served from the per-snapshot memo.")
	e.models.missesC = e.reg.Counter("booters_model_cache_misses_total",
		"Model fits computed fresh (memo miss or pre-swap snapshot).")
	e.reg.GaugeFunc("booters_store_swaps",
		"Snapshots published into the serving store since start.",
		func() float64 { return float64(e.store.Swaps()) })
	e.reg.GaugeFunc("booters_snapshot_seq",
		"Sequence number of the snapshot currently being served (0 before the first).",
		func() float64 {
			if snap := e.store.Load(); snap != nil {
				return float64(snap.Seq)
			}
			return 0
		})
	return e
}

// Metrics returns the registry the engine instruments itself on (the one
// /v1/metrics renders when the engine backs a Server).
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// Publish swaps a new snapshot into the store (stale sequence numbers are
// ignored). It is the engine's only write entry point.
func (e *Engine) Publish(snap *ingest.Snapshot) { e.store.Publish(snap) }

// Snapshot returns the store's current snapshot, or nil before the first
// publish.
func (e *Engine) Snapshot() *ingest.Snapshot { return e.store.Load() }

// Status summarises the serving state: the snapshot frontier plus live
// ingest counters when a pipeline is attached.
type Status struct {
	// Seq is the current snapshot's sequence number (0 when none).
	Seq uint64
	// Sealed and Through mirror the snapshot's frontier fields.
	Sealed bool
	// Through is the last fully sealed week; valid when Sealed.
	Through timeseries.Week
	// Final reports whether the pipeline has closed and published its
	// final panel.
	Final bool
	// Start and Weeks give the panel span.
	Start timeseries.Week
	// Weeks is the panel length in weeks.
	Weeks int
	// Attacks and Flows are the snapshot's booked totals.
	Attacks, Flows int
	// Swaps counts snapshots published into the store.
	Swaps uint64
	// LivePackets and LiveFlows are read from the attached pipeline at
	// query time (zero without one): packets accepted and flows closed
	// so far, typically ahead of the last snapshot.
	LivePackets uint64
	// LiveFlows is the attached pipeline's closed-flow counter.
	LiveFlows int64
	// LiveLate is the attached pipeline's late-rejection counter, read
	// live at query time (a federated collector must see drops as they
	// happen, not in the end-of-run Stats).
	LiveLate uint64
	// ReplayTorn counts spool segments that lost records to corruption
	// in the replay feeding this process, read live from the configured
	// metrics registry (zero when Config.Obs is not the registry the
	// replay reports to).
	ReplayTorn uint64
	// ReplayUnindexed counts unindexed segments the replay scanned in
	// full, read the same way.
	ReplayUnindexed uint64
	// FreshnessSeconds is the stream-time distance between the attached
	// pipeline's live watermark head and the end of the last sealed week
	// — how much already-ingested stream time is not yet queryable. Zero
	// without a pipeline, before the first seal, or when the head has
	// not passed the sealed frontier.
	FreshnessSeconds float64
}

// Status reports the serving state; it never fails, returning a zero
// status before the first snapshot.
func (e *Engine) Status() Status {
	var out Status
	if snap := e.store.Load(); snap != nil {
		out.Seq = snap.Seq
		out.Sealed = snap.Sealed
		out.Through = snap.Through
		out.Final = snap.Final
		out.Start = snap.Start
		out.Weeks = snap.Weeks
		out.Attacks = snap.Stats.Attacks
		out.Flows = snap.Stats.Flows
	}
	out.Swaps = e.store.Swaps()
	if in := e.cfg.Ingest; in != nil {
		out.LivePackets = in.Packets()
		out.LiveFlows = in.FlowsClosed()
		out.LiveLate = in.Late()
		if out.Sealed {
			if head := in.Head(); !head.IsZero() {
				if lag := head.Sub(out.Through.Start.AddDate(0, 0, 7)); lag > 0 {
					out.FreshnessSeconds = lag.Seconds()
				}
			}
		}
	}
	if torn, ok := e.reg.Sum("booters_spool_replay_torn_total"); ok {
		out.ReplayTorn = uint64(torn)
	}
	if un, ok := e.reg.Sum("booters_spool_replay_unindexed_total"); ok {
		out.ReplayUnindexed = uint64(un)
	}
	return out
}

// Series returns one weekly series from the current snapshot: the global
// series when both selectors are empty, a country's, a protocol's, or the
// country-by-protocol cell when both are given. The returned series is
// shared with the immutable snapshot and must not be modified.
func (e *Engine) Series(country, proto string) (*timeseries.Series, error) {
	snap := e.store.Load()
	if snap == nil {
		return nil, ErrNoSnapshot
	}
	switch {
	case country == "" && proto == "":
		return snap.Global, nil
	case proto == "":
		if s := snap.Country(country); s != nil {
			return s, nil
		}
		return nil, fmt.Errorf("serve: no series for country %q", country)
	case country == "":
		p, ok := protocols.ByName(proto)
		if !ok {
			return nil, fmt.Errorf("serve: no series for protocol %q", proto)
		}
		return snap.Protocol(p), nil
	default:
		if snap.Country(country) == nil {
			return nil, fmt.Errorf("serve: no series for country %q", country)
		}
		p, ok := protocols.ByName(proto)
		if !ok {
			return nil, fmt.Errorf("serve: no series for protocol %q", proto)
		}
		return snap.CountryProtocol(country, p), nil
	}
}

// TopCountries ranks victim countries by booked attacks in the current
// snapshot (see timeseries.Panel.TopCountries); k <= 0 means 10.
func (e *Engine) TopCountries(k int) ([]timeseries.Ranked, error) {
	return e.top((*timeseries.Panel).TopCountries, k)
}

// TopProtocols ranks amplification protocols by booked attacks in the
// current snapshot (see timeseries.Panel.TopProtocols); k <= 0 means 10.
func (e *Engine) TopProtocols(k int) ([]timeseries.Ranked, error) {
	return e.top((*timeseries.Panel).TopProtocols, k)
}

// top applies one of the panel's rankings to the current snapshot.
func (e *Engine) top(rank func(*timeseries.Panel, int) []timeseries.Ranked, k int) ([]timeseries.Ranked, error) {
	snap := e.store.Load()
	if snap == nil {
		return nil, ErrNoSnapshot
	}
	return rank(snap.Panel, k), nil
}

// SpoolInfo loads the configured spool directory's segment index (see
// internal/spool.LoadIndex); it is metadata-only and never touches block
// data.
func (e *Engine) SpoolInfo() (*spool.Index, error) {
	if e.cfg.SpoolDir == "" {
		return nil, ErrNoSpool
	}
	return spool.LoadIndex(e.cfg.SpoolDir)
}

// modelKey identifies one fit request: the half-open week window.
type modelKey struct {
	from, to int64 // week-start unix seconds
}

// modelEntry is one memoized fit; done is closed when model/err are set,
// so concurrent identical queries wait for the first fit instead of
// refitting.
type modelEntry struct {
	done  chan struct{}
	model *its.Model
	err   error
}

// modelCache memoizes fits per snapshot sequence: entries fitted against
// an older snapshot are dropped wholesale the first time a query sees a
// newer one, which is what "invalidated on snapshot swap" means here —
// no timers, no explicit hooks, just the sequence number.
type modelCache struct {
	mu      sync.Mutex
	seq     uint64
	entries map[modelKey]*modelEntry

	hits, misses atomic.Uint64
	// hitsC and missesC mirror the atomics onto the metrics registry
	// (counter families, set by NewEngine).
	hitsC, missesC *obs.Counter
}

// hit books one memo hit on both ledgers.
func (c *modelCache) hit() {
	c.hits.Add(1)
	c.hitsC.Inc()
}

// miss books one fresh fit on both ledgers.
func (c *modelCache) miss() {
	c.misses.Add(1)
	c.missesC.Inc()
}

// ModelCacheStats reports the memo's hit/miss counters since start.
func (e *Engine) ModelCacheStats() (hits, misses uint64) {
	return e.models.hits.Load(), e.models.misses.Load()
}

// Model fits the intervention model to the current snapshot's global
// series over the half-open week window [from, to): an NB2 regression on
// seasonal, Easter and trend terms plus a dummy for every configured
// intervention whose window starts inside the span, with each dummy's
// duration refined by likelihood search exactly as the facade's
// FitGlobalModel does. Fits are memoized per (window, snapshot): repeat
// queries are pointer loads, and a snapshot swap invalidates the memo.
func (e *Engine) Model(from, to time.Time) (*its.Model, error) {
	snap := e.store.Load()
	if snap == nil {
		return nil, ErrNoSnapshot
	}
	key := modelKey{from: timeseries.WeekOf(from).Start.Unix(), to: timeseries.WeekOf(to).Start.Unix()}
	c := &e.models
	c.mu.Lock()
	if snap.Seq < c.seq {
		// A reader still holding a pre-swap snapshot: fit it uncached
		// rather than wiping the newer snapshot's memo.
		c.mu.Unlock()
		c.miss()
		return e.fit(snap, from, to)
	}
	if snap.Seq > c.seq {
		c.seq = snap.Seq
		c.entries = make(map[modelKey]*modelEntry)
	}
	if ent, ok := c.entries[key]; ok {
		c.mu.Unlock()
		c.hit()
		<-ent.done
		return ent.model, ent.err
	}
	ent := &modelEntry{done: make(chan struct{})}
	c.entries[key] = ent
	c.mu.Unlock()
	c.miss()
	ent.model, ent.err = e.fit(snap, from, to)
	close(ent.done)
	return ent.model, ent.err
}

// fit slices the snapshot and runs the likelihood-search fit; it touches
// only the immutable snapshot, so concurrent fits need no coordination.
func (e *Engine) fit(snap *ingest.Snapshot, from, to time.Time) (*its.Model, error) {
	fromW, toW := timeseries.WeekOf(from), timeseries.WeekOf(to)
	if !fromW.Before(toW) {
		return nil, fmt.Errorf("serve: empty model window [%v, %v)", fromW, toW)
	}
	s := snap.Global.Slice(fromW, toW)
	var ivs []its.Intervention
	for _, iv := range e.cfg.Interventions {
		if w := iv.Window(); !w.Before(fromW) && w.Before(toW) {
			ivs = append(ivs, iv)
		}
	}
	if len(ivs) == 0 {
		return its.Fit(s, its.DefaultSpec(nil))
	}
	return its.SearchAllDurations(s, its.DefaultSpec(ivs), its.SearchRadius)
}
