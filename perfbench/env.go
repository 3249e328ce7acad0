package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"booters/internal/scenario"
)

// env is one measured invocation: the generated inputs it reads, the
// pass it is in, and the result it accumulates.
type env struct {
	dir    string
	seed   int64
	dur    time.Duration // length of the measured phase of one pass
	traced bool          // print per-layer metrics (set for the whole invocation)
	man    *scenario.Manifest

	// tr is the benchmark's own span recorder: nil in untraced passes,
	// so every timing wrapper around a layer call costs a nil check.
	tr  *tracer
	mon *monitor // steal and progress sampler for the whole invocation

	e2e   *metricSet // end-to-end metrics of the current pass
	layer *metricSet // per-layer metrics, traced invocations only

	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
}

func newEnv(dir string, seed int64, dur time.Duration, traced bool) (*env, error) {
	if _, err := os.Stat(filepath.Join(dir, "READY")); err != nil {
		return nil, fmt.Errorf("no generated input in %s (run gen first): %w", dir, err)
	}
	man, err := scenario.ReadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	if err := warmPageCache(dir); err != nil {
		return nil, err
	}
	return &env{dir: dir, seed: seed, dur: dur, traced: traced, man: man,
		e2e: newMetricSet(), layer: newMetricSet(), mon: startMonitor()}, nil
}

// path joins a name onto the workload's data directory.
func (e *env) path(name string) string { return filepath.Join(e.dir, name) }

// readPlan decodes the workload's plan.json into v.
func (e *env) readPlan(v any) error {
	b, err := os.ReadFile(e.path("plan.json"))
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// ops books attempted and failed operations.
func (e *env) ops(attempted, failed int64) {
	e.mu.Lock()
	e.attempted += attempted
	e.failed += failed
	e.mu.Unlock()
}

// fail records a failed output check; the run then prints no metrics.
func (e *env) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	e.mu.Lock()
	e.errs = append(e.errs, msg)
	e.mu.Unlock()
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// check records a failed check when err is non-nil and reports whether
// it was nil.
func (e *env) check(what string, err error) bool {
	if err != nil {
		e.fail("%s: %v", what, err)
		return false
	}
	return true
}

func (e *env) ok() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.errs) == 0
}

// print writes the result line: the end-to-end metrics, or the per-layer
// ones for a traced invocation, or none at all when a check failed. It
// reports whether the run is correct.
func (e *env) print(w io.Writer) bool {
	ok := e.ok()
	set := e.e2e
	if e.traced {
		set = e.layer
	}
	var b strings.Builder
	b.WriteString(`{"correct":`)
	b.WriteString(strconv.FormatBool(ok))
	fmt.Fprintf(&b, `,"attempted":%d,"failed":%d,"metrics":{`, max(e.attempted, 1), e.failed)
	if ok {
		for i, name := range set.names {
			if i > 0 {
				b.WriteByte(',')
			}
			m := set.vals[name]
			fmt.Fprintf(&b, `%q:{"value":%s,"unit":%q}`, name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		}
	}
	b.WriteString("}}\n")
	io.WriteString(w, b.String())
	return ok
}

// metricSet is an insertion-ordered set of named values.
type metricSet struct {
	names []string
	vals  map[string]metricVal
}

type metricVal struct {
	value float64
	unit  string
}

func newMetricSet() *metricSet { return &metricSet{vals: map[string]metricVal{}} }

func (s *metricSet) set(name string, value float64, unit string) {
	if _, ok := s.vals[name]; !ok {
		s.names = append(s.names, name)
	}
	s.vals[name] = metricVal{value, unit}
}

func (s *metricSet) get(name string) float64 { return s.vals[name].value }

// tracer is the benchmark's span recorder for traced passes: durations
// of calls into each layer, grouped by span name. All methods are no-ops
// on a nil tracer.
type tracer struct {
	mu    sync.Mutex
	spans map[string][]float64 // span name -> durations in ns
}

func newTracer() *tracer { return &tracer{spans: map[string][]float64{}} }

// span books one call into a layer that started at start.
func (t *tracer) span(name string, start time.Time) {
	if t == nil {
		return
	}
	d := float64(time.Since(start))
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], d)
	t.mu.Unlock()
}

// median returns the median duration of a span in ns (0 when unseen).
func (t *tracer) median(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return quantile(t.spans[name], 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// warmPageCache reads every generated file once so the first measured
// pass does not pay for cold disk reads the later ones skip.
func warmPageCache(dir string) error {
	buf := make([]byte, 1<<20)
	return filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		for {
			if _, err := f.Read(buf); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
}
