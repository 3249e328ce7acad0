// Package obs is the repository's hand-rolled observability layer: a
// zero-dependency metrics registry (atomic counters, gauges, and
// fixed-bucket log-scale latency histograms) with Prometheus text-format
// exposition, plus the periodic progress logger and pprof wiring the
// long-replay commands use.
//
// The design rule, inherited from the ingest pipeline's sink fan-out, is
// that instrumentation must never add contention to a hot path. Metrics
// on per-packet paths are per-shard/per-worker cells (ShardedCounter) or
// worker-owned gauges: each shard touches only its own cache line, so the
// per-packet cost is one uncontended atomic add, and the cells are summed
// only when a scrape renders the registry. Everything a scrape reads is
// an atomic load — a concurrent scrape can observe a metric mid-update
// across two cells (sums are not a consistent cut), but each individual
// sample is torn-free and every counter is monotone, which is exactly the
// Prometheus data model.
//
// Registration is get-or-create: asking twice for the same (name, labels)
// returns the same instrument, so independently constructed subsystems
// (a pipeline, a spool writer, an HTTP server) can share one Registry
// without coordination. Asking for an existing name with a different
// metric type or shard shape panics — that is a programming error, not a
// runtime condition.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric label pair; families render their children's labels
// sorted by name inside {}.
type Label struct {
	// Name is the label name (Prometheus identifier rules apply).
	Name string
	// Value is the label value, escaped at render time.
	Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind discriminates family types for conflict checks and TYPE
// lines.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// typeName renders the Prometheus TYPE keyword.
func (k metricKind) typeName() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	}
	return "histogram"
}

// child is one labelled instrument inside a family.
type child interface {
	// appendSamples renders the child's sample lines. name is the family
	// name, labels the pre-rendered label string ("" or `{a="b"}`).
	appendSamples(dst []byte, name, labels string) []byte
	// total returns the child's scalar value for Registry.Sum (histograms
	// contribute their observation count).
	total() float64
}

// family groups the children of one metric name under a shared HELP/TYPE.
type family struct {
	name     string
	help     string
	kind     metricKind
	order    []string // label keys in registration order
	children map[string]child
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry. All methods are
// safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry handed out by Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry, the one the commands wire
// through ingest, spool and serve so a single scrape sees the whole
// pipeline. Libraries take a *Registry instead of reaching for this.
func Default() *Registry { return defaultRegistry }

// labelKey renders labels sorted by name into the canonical `{…}` form
// used both as the child map key and in the exposition output.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the text-format label escapes.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// lookup returns (creating if needed) the family and the child under key,
// building a missing child with mk. It panics on kind conflicts.
func (r *Registry) lookup(name, help string, kind metricKind, key string, mk func() child) child {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]child)}
		r.families[name] = f
		r.names = append(r.names, name)
		sort.Strings(r.names)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind.typeName(), f.kind.typeName()))
	}
	c, ok := f.children[key]
	if !ok {
		c = mk()
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// Counter returns the monotone counter registered under name and labels,
// creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := r.lookup(name, help, kindCounter, labelKey(labels), func() child { return &Counter{} })
	return c.(*Counter)
}

// Gauge returns the gauge registered under name and labels, creating it
// on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	c := r.lookup(name, help, kindGauge, labelKey(labels), func() child { return &Gauge{} })
	return c.(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — the instrument for state that already lives somewhere cheap to
// read (a channel length, a watermark atomic). Re-registering the same
// (name, labels) replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	key := labelKey(labels)
	c := r.lookup(name, help, kindGauge, key, func() child { return &funcGauge{} })
	fg, ok := c.(*funcGauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q%s re-registered as func gauge (was plain gauge)", name, key))
	}
	fg.mu.Lock()
	fg.fn = fn
	fg.mu.Unlock()
}

// ShardedCounter returns the per-shard-cell counter registered under name
// and labels, creating it with the given cell count on first use. It
// panics if the existing instrument has a different cell count.
func (r *Registry) ShardedCounter(name, help string, cells int, labels ...Label) *ShardedCounter {
	if cells < 1 {
		cells = 1
	}
	c := r.lookup(name, help, kindCounter, labelKey(labels), func() child { return newShardedCounter(cells) })
	sc, ok := c.(*ShardedCounter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q re-registered as sharded counter", name))
	}
	if sc.Cells() != cells {
		panic(fmt.Sprintf("obs: sharded counter %q re-registered with %d cells (was %d)", name, cells, sc.Cells()))
	}
	return sc
}

// Histogram returns the log-scale latency histogram registered under name
// and labels, creating it on first use. See Histogram for the bucket
// layout.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	c := r.lookup(name, help, kindHistogram, labelKey(labels), func() child { return &Histogram{} })
	return c.(*Histogram)
}

// Sum returns the summed value of every child registered under name
// (histograms contribute their observation counts), and whether the
// family exists. It is the cheap cross-instrument read /v1/status uses to
// surface live counters without holding typed handles.
func (r *Registry) Sum(name string) (float64, bool) {
	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		r.mu.Unlock()
		return 0, false
	}
	children := make([]child, 0, len(f.children))
	for _, c := range f.children {
		children = append(children, c)
	}
	r.mu.Unlock()
	var sum float64
	for _, c := range children {
		sum += c.total()
	}
	return sum, true
}

// AppendText renders the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, each with HELP and TYPE lines
// followed by its children's samples in registration order.
func (r *Registry) AppendText(dst []byte) []byte {
	r.mu.Lock()
	names := make([]string, len(r.names))
	copy(names, r.names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	// Snapshot each family's child list under the lock; the samples
	// themselves are atomics read lock-free below.
	type famSnap struct {
		f    *family
		keys []string
	}
	snaps := make([]famSnap, len(fams))
	for i, f := range fams {
		keys := make([]string, len(f.order))
		copy(keys, f.order)
		snaps[i] = famSnap{f: f, keys: keys}
	}
	r.mu.Unlock()
	for _, s := range snaps {
		dst = append(dst, "# HELP "...)
		dst = append(dst, s.f.name...)
		dst = append(dst, ' ')
		dst = append(dst, s.f.help...)
		dst = append(dst, '\n')
		dst = append(dst, "# TYPE "...)
		dst = append(dst, s.f.name...)
		dst = append(dst, ' ')
		dst = append(dst, s.f.kind.typeName()...)
		dst = append(dst, '\n')
		for _, key := range s.keys {
			r.mu.Lock()
			c := s.f.children[key]
			r.mu.Unlock()
			if c != nil {
				dst = c.appendSamples(dst, s.f.name, key)
			}
		}
	}
	return dst
}

// Counter is a monotone atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) appendSamples(dst []byte, name, labels string) []byte {
	dst = append(dst, name...)
	dst = append(dst, labels...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, c.v.Load(), 10)
	return append(dst, '\n')
}

func (c *Counter) total() float64 { return float64(c.v.Load()) }

// Gauge is an atomic int64 gauge.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water update, safe under concurrent raisers.
func (g *Gauge) SetMax(v int64) {
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) appendSamples(dst []byte, name, labels string) []byte {
	dst = append(dst, name...)
	dst = append(dst, labels...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, g.v.Load(), 10)
	return append(dst, '\n')
}

func (g *Gauge) total() float64 { return float64(g.v.Load()) }

// funcGauge samples a callback at scrape time.
type funcGauge struct {
	mu sync.Mutex
	fn func() float64
}

// read samples the callback (0 when none is set yet).
func (g *funcGauge) read() float64 {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

func (g *funcGauge) appendSamples(dst []byte, name, labels string) []byte {
	dst = append(dst, name...)
	dst = append(dst, labels...)
	dst = append(dst, ' ')
	dst = appendFloat(dst, g.read())
	return append(dst, '\n')
}

func (g *funcGauge) total() float64 { return g.read() }

// cellStride spaces ShardedCounter cells one cache line apart so two
// shards' increments never share a line (false sharing is the whole cost
// the cells exist to avoid).
const cellStride = 8 // uint64 words per 64-byte line

// ShardedCounter is a monotone counter split into per-shard cells: each
// writer owns one cell index and increments it with an uncontended atomic
// add; the cells are summed only when a scrape (or Value) reads the
// counter. It renders as a single sample — the merged total — matching
// the scrape-time-merge invariant documented in ARCHITECTURE.md.
type ShardedCounter struct {
	cells []atomic.Uint64 // strided: cell i lives at i*cellStride
}

// newShardedCounter allocates n strided cells.
func newShardedCounter(n int) *ShardedCounter {
	return &ShardedCounter{cells: make([]atomic.Uint64, n*cellStride)}
}

// Inc adds one to the given shard's cell.
func (s *ShardedCounter) Inc(shard int) { s.cells[shard*cellStride].Add(1) }

// Add adds n to the given shard's cell.
func (s *ShardedCounter) Add(shard int, n uint64) { s.cells[shard*cellStride].Add(n) }

// Value sums the cells. Concurrent increments may or may not be included
// (each cell is read atomically; the sum is not a consistent cut), but
// the result is monotone across calls once writers have stopped.
func (s *ShardedCounter) Value() uint64 {
	var sum uint64
	for i := 0; i < len(s.cells); i += cellStride {
		sum += s.cells[i].Load()
	}
	return sum
}

// Cells returns the number of shard cells.
func (s *ShardedCounter) Cells() int { return len(s.cells) / cellStride }

func (s *ShardedCounter) appendSamples(dst []byte, name, labels string) []byte {
	dst = append(dst, name...)
	dst = append(dst, labels...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, s.Value(), 10)
	return append(dst, '\n')
}

func (s *ShardedCounter) total() float64 { return float64(s.Value()) }

// appendFloat renders a float64 sample value.
func appendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}
