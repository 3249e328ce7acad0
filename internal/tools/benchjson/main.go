// Command benchjson turns `go test -bench` output into a stable JSON
// document, so benchmark trajectories can be checked in (BENCH_*.json at
// the repo root) and diffed across PRs, and so CI can gate on a
// regression bound between two benchmarks of the same run — the
// metrics-on versus metrics-off ingest overhead gate being the motivating
// case.
//
// Usage:
//
//	go test -bench 'Ingest1Shard' -benchtime 1x . | benchjson -note "PR 6" -out BENCH_PR6.json
//	benchjson -in bench.txt -compare BenchmarkIngest1Shard,BenchmarkIngest1ShardMetrics \
//	          -metric ns/op -max-delta-pct 3
//	benchjson -in bench.txt -out /dev/null \
//	          -assert 'BenchmarkIngestSteadyState:allocs/op<=2' \
//	          -assert 'BenchmarkSpoolReadSteadyRecord:allocs/op<=2'
//
// The parser keeps every `value unit` pair a benchmark line reports
// (ns/op, B/op, allocs/op and custom b.ReportMetric units alike), keyed
// by unit. A benchmark repeated with -count keeps every sample, and each
// unit records its median and quartiles; -compare and -assert read the
// median. -compare A,B computes the relative delta of B against A on
// -metric and exits non-zero when it exceeds -max-delta-pct — "B may be
// at most P percent worse than A" for cost-like metrics where bigger is
// worse. -assert (repeatable) gates a single benchmark's metric against
// an absolute bound: `NAME:METRIC<=VALUE` for cost-like metrics
// (allocs/op being the motivating case — a budget of 2 must not quietly
// become 2000), `NAME:METRIC>=VALUE` for throughput floors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark: its iteration count, GOMAXPROCS suffix
// and reported metrics keyed by unit, summarised over every sample (one
// per output line, so -count N gives N samples).
type Result struct {
	// Procs is the -N GOMAXPROCS suffix of the benchmark lines (0 when
	// they had none).
	Procs int `json:"procs,omitempty"`
	// Iterations is b.N summed over the samples.
	Iterations int `json:"iterations"`
	// Metrics maps a reported unit ("ns/op", "packets/sec", "B/op",
	// ...) to its median across the samples.
	Metrics map[string]float64 `json:"metrics"`
	// Q1 and Q3 map each unit to its lower and upper quartile across the
	// samples.
	Q1 map[string]float64 `json:"q1"`
	Q3 map[string]float64 `json:"q3"`
	// Samples maps each unit to its value in every sample, in input order.
	Samples map[string][]float64 `json:"samples"`
}

// Document is the checked-in JSON shape: a note plus the benchmark map.
type Document struct {
	// Note is freeform provenance (-note): PR number, host class, date.
	Note string `json:"note,omitempty"`
	// Benchmarks maps the full benchmark name (minus the -procs
	// suffix) to its parsed result.
	Benchmarks map[string]Result `json:"benchmarks"`
}

// benchLine matches one benchmark result line: name, optional -procs
// suffix, iteration count, then the metric pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.+)$`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	in := flag.String("in", "-", "bench output to parse (- = stdin)")
	out := flag.String("out", "-", "JSON destination (- = stdout)")
	note := flag.String("note", "", "freeform provenance note recorded in the JSON")
	compare := flag.String("compare", "", "two benchmark names A,B to compare (exit 1 on regression)")
	metric := flag.String("metric", "ns/op", "metric unit for -compare (bigger = worse)")
	maxDelta := flag.Float64("max-delta-pct", 3, "fail -compare when B is more than this percent worse than A")
	var asserts []string
	flag.Func("assert", "absolute bound NAME:METRIC<=VALUE or NAME:METRIC>=VALUE (repeatable, exit 1 when violated)", func(s string) error {
		asserts = append(asserts, s)
		return nil
	})
	flag.Parse()

	doc, err := parse(*in)
	if err != nil {
		log.Fatal(err)
	}
	doc.Note = *note
	if len(doc.Benchmarks) == 0 {
		log.Fatal("no benchmark lines found in input")
	}
	if err := write(*out, doc); err != nil {
		log.Fatal(err)
	}
	if *compare != "" {
		if err := gate(doc, *compare, *metric, *maxDelta); err != nil {
			log.Fatal(err)
		}
	}
	for _, spec := range asserts {
		if err := assertBound(doc, spec); err != nil {
			log.Fatal(err)
		}
	}
}

// assertRe splits one -assert spec into name, metric, operator and bound.
// The metric match is lazy so the operator anchors the split even though
// metric units themselves contain '/'.
var assertRe = regexp.MustCompile(`^([^:]+):(.+?)(<=|>=)(.+)$`)

// assertBound enforces one absolute per-metric bound. Like gate, the
// verdict goes to stderr either way so CI logs record the measured value
// next to its budget.
func assertBound(doc *Document, spec string) error {
	m := assertRe.FindStringSubmatch(spec)
	if m == nil {
		return fmt.Errorf("bad -assert %q (want NAME:METRIC<=VALUE or NAME:METRIC>=VALUE)", spec)
	}
	name, metric, op := strings.TrimSpace(m[1]), strings.TrimSpace(m[2]), m[3]
	bound, err := strconv.ParseFloat(strings.TrimSpace(m[4]), 64)
	if err != nil {
		return fmt.Errorf("bad -assert bound in %q: %v", spec, err)
	}
	res, ok := doc.Benchmarks[name]
	if !ok {
		return fmt.Errorf("-assert: benchmark %q not in input", name)
	}
	v, ok := res.Metrics[metric]
	if !ok {
		return fmt.Errorf("-assert: benchmark %q has no %q metric", name, metric)
	}
	holds := (op == "<=" && v <= bound) || (op == ">=" && v >= bound)
	verdict := "ok"
	if !holds {
		verdict = "VIOLATED"
	}
	fmt.Fprintf(os.Stderr, "benchjson: assert %s %s: %v %s %v: %s\n", name, metric, v, op, bound, verdict)
	if !holds {
		return fmt.Errorf("assert failed: %s %s is %v, want %s %v", name, metric, v, op, bound)
	}
	return nil
}

// parse reads `go test -bench` output from path (or stdin) and collects
// every benchmark line. A benchmark appearing more than once (e.g.
// -count > 1) keeps every occurrence as a sample; its Metrics, Q1 and Q3
// are the samples' quartiles.
func parse(path string) (*Document, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	doc := &Document{Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.Atoi(m[3])
		if err != nil {
			continue
		}
		var procs int
		if m[2] != "" {
			procs, _ = strconv.Atoi(m[2])
		}
		res, seen := doc.Benchmarks[m[1]]
		if !seen {
			res = Result{Procs: procs, Samples: map[string][]float64{}}
		} else if res.Procs != procs {
			return nil, fmt.Errorf("%s: samples at GOMAXPROCS %d and %d (record one -cpu value per file)", m[1], res.Procs, procs)
		}
		res.Iterations += iters
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad metric value %q", m[1], fields[i])
			}
			res.Samples[fields[i+1]] = append(res.Samples[fields[i+1]], v)
		}
		doc.Benchmarks[m[1]] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, res := range doc.Benchmarks {
		res.Metrics = map[string]float64{}
		res.Q1 = map[string]float64{}
		res.Q3 = map[string]float64{}
		for unit, xs := range res.Samples {
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			res.Q1[unit] = quantile(sorted, 0.25)
			res.Metrics[unit] = quantile(sorted, 0.5)
			res.Q3[unit] = quantile(sorted, 0.75)
		}
		doc.Benchmarks[name] = res
	}
	return doc, nil
}

// quantile returns the q-quantile of the sorted, non-empty xs by linear
// interpolation between closest ranks — the rule perfbench reports its
// medians and quartiles with.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// write renders the document as indented JSON to path (or stdout).
// Object keys are emitted sorted (encoding/json sorts map keys), so the
// output is diff-stable across runs.
func write(path string, doc *Document) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// gate enforces the -compare bound: benchmark B's metric may exceed A's
// by at most maxDelta percent. The verdict line goes to stderr either
// way so CI logs show the measured overhead.
func gate(doc *Document, compare, metric string, maxDelta float64) error {
	names := strings.Split(compare, ",")
	if len(names) != 2 {
		return fmt.Errorf("-compare wants exactly two names, got %q", compare)
	}
	values := make([]float64, 2)
	for i, name := range names {
		name = strings.TrimSpace(name)
		res, ok := doc.Benchmarks[name]
		if !ok {
			return fmt.Errorf("benchmark %q not in input", name)
		}
		v, ok := res.Metrics[metric]
		if !ok {
			return fmt.Errorf("benchmark %q has no %q metric", name, metric)
		}
		if v <= 0 && i == 0 {
			return fmt.Errorf("benchmark %q: non-positive %s baseline", name, metric)
		}
		values[i] = v
	}
	delta := (values[1] - values[0]) / values[0] * 100
	fmt.Fprintf(os.Stderr, "benchjson: %s: %s vs %s: %+.2f%% (bound +%.2f%%)\n",
		metric, names[1], names[0], delta, maxDelta)
	if delta > maxDelta {
		return fmt.Errorf("%s regression: %s is %.2f%% worse than %s (bound %.2f%%)",
			metric, names[1], delta, names[0], maxDelta)
	}
	return nil
}
