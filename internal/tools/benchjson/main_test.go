package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleBench = `
goos: linux
BenchmarkIngestSteadyState     	 2000000	       200.1 ns/op	   4998691 packets/sec	       2 B/op	       0 allocs/op
BenchmarkSpoolReadSteadyRecord-4 	 2000000	        79.72 ns/op	  12544669 packets/sec	       0 B/op	       1 allocs/op
BenchmarkIngest1Shard 	       4	 159049111 ns/op	    967228 packets/op	   6081342 packets/sec	 2409310 B/op	   26971 allocs/op
PASS
`

func parseSample(t *testing.T) *Document {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := parse(path)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestParseKeepsEveryMetric(t *testing.T) {
	doc := parseSample(t)
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	res, ok := doc.Benchmarks["BenchmarkSpoolReadSteadyRecord"]
	if !ok {
		t.Fatal("procs-suffixed benchmark not parsed under its bare name")
	}
	if res.Procs != 4 || res.Iterations != 2000000 {
		t.Errorf("procs=%d iterations=%d, want 4 and 2000000", res.Procs, res.Iterations)
	}
	for unit, want := range map[string]float64{"ns/op": 79.72, "allocs/op": 1, "packets/sec": 12544669} {
		if got := res.Metrics[unit]; got != want {
			t.Errorf("metric %s = %v, want %v", unit, got, want)
		}
	}
}

// TestRepeatedSamplesUseMedian checks a -count 3 run keeps all three
// samples, records the median and quartiles, and gates on the median
// rather than on whichever sample came last.
func TestRepeatedSamplesUseMedian(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.txt")
	out := `BenchmarkX-2 	 10	 100 ns/op	 1 allocs/op
BenchmarkX-2 	 10	 200 ns/op	 1 allocs/op
BenchmarkX-2 	 10	 400 ns/op	 1 allocs/op
`
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := parse(path)
	if err != nil {
		t.Fatal(err)
	}
	res := doc.Benchmarks["BenchmarkX"]
	if res.Iterations != 30 || res.Procs != 2 {
		t.Errorf("iterations=%d procs=%d, want 30 and 2", res.Iterations, res.Procs)
	}
	if got := res.Samples["ns/op"]; !reflect.DeepEqual(got, []float64{100, 200, 400}) {
		t.Errorf("samples = %v, want [100 200 400]", got)
	}
	if res.Q1["ns/op"] != 150 || res.Metrics["ns/op"] != 200 || res.Q3["ns/op"] != 300 {
		t.Errorf("quartiles = %v/%v/%v, want 150/200/300", res.Q1["ns/op"], res.Metrics["ns/op"], res.Q3["ns/op"])
	}
	if err := assertBound(doc, "BenchmarkX:ns/op<=250"); err != nil {
		t.Errorf("assert against the median: %v", err)
	}
	if err := os.WriteFile(path, []byte(out+"BenchmarkX-4 	 10	 100 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parse(path); err == nil {
		t.Error("samples at two GOMAXPROCS values merged without error")
	}
}

func TestAssertBound(t *testing.T) {
	doc := parseSample(t)
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"BenchmarkIngestSteadyState:allocs/op<=2", true},
		{"BenchmarkIngestSteadyState:allocs/op<=0", true},
		{"BenchmarkSpoolReadSteadyRecord:allocs/op<=0", false},
		{"BenchmarkIngest1Shard:packets/sec>=5000000", true},
		{"BenchmarkIngest1Shard:packets/sec>=9000000", false},
		{"BenchmarkIngestSteadyState:ns/op<=250", true},
		{"no-such-bench:ns/op<=1", false},
		{"BenchmarkIngest1Shard:no/such/metric<=1", false},
		{"malformed spec", false},
		{"BenchmarkIngest1Shard:ns/op<=not-a-number", false},
	} {
		err := assertBound(doc, tc.spec)
		if tc.ok && err != nil {
			t.Errorf("assert %q: unexpected error %v", tc.spec, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("assert %q: want error, got nil", tc.spec)
		}
	}
}

func TestGateCompare(t *testing.T) {
	doc := parseSample(t)
	// Steady record is ~60% cheaper than steady state on ns/op: a 3%
	// bound passes one direction and fails the other.
	if err := gate(doc, "BenchmarkIngestSteadyState,BenchmarkSpoolReadSteadyRecord", "ns/op", 3); err != nil {
		t.Errorf("faster-than-baseline comparison failed: %v", err)
	}
	if err := gate(doc, "BenchmarkSpoolReadSteadyRecord,BenchmarkIngestSteadyState", "ns/op", 3); err == nil {
		t.Error("2.5x regression passed a 3% bound")
	}
	if err := gate(doc, "only-one-name", "ns/op", 3); err == nil {
		t.Error("malformed -compare accepted")
	}
}

func TestWriteIsStable(t *testing.T) {
	doc := parseSample(t)
	doc.Note = "test"
	path := filepath.Join(t.TempDir(), "out.json")
	if err := write(path, doc); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(buf)
	if !strings.Contains(s, `"note": "test"`) || !strings.Contains(s, `"allocs/op": 0`) {
		t.Errorf("unexpected JSON output:\n%s", s)
	}
	if !strings.HasSuffix(s, "\n") {
		t.Error("output missing trailing newline")
	}
}

// parseText parses bench output held in a string.
func parseText(t *testing.T, out string) *Document {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := parse(path)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// benchRuns renders one benchmark's -count samples as bench output.
func benchRuns(name string, nsPerOp ...float64) string {
	var b strings.Builder
	for _, v := range nsPerOp {
		fmt.Fprintf(&b, "%s-2 \t 10\t %v ns/op\t %v packets/sec\t 5 allocs/op\n", name, v, 1e9/v)
	}
	return b.String()
}

// TestABGate pins -ab's rule: a change fails only when its median is
// worse by more than the bound and the quartile ranges do not overlap.
func TestABGate(t *testing.T) {
	parent := parseText(t, benchRuns("BenchmarkA", 100, 101, 102, 103, 104, 105))
	for _, tc := range []struct {
		name   string
		change []float64
		metric string
		ok     bool
	}{
		{"same", []float64{100, 101, 102, 103, 104, 105}, "ns/op", true},
		{"faster", []float64{60, 61, 62, 63, 64, 65}, "ns/op", true},
		{"slower beyond noise", []float64{120, 121, 122, 123, 124, 125}, "ns/op", false},
		{"slower but overlapping", []float64{100, 103, 106, 109, 112, 115}, "ns/op", true},
		{"slower within bound", []float64{103, 104, 105, 106, 107, 108}, "ns/op", true},
		{"throughput drop beyond noise", []float64{120, 121, 122, 123, 124, 125}, "packets/sec", false},
		{"throughput gain", []float64{60, 61, 62, 63, 64, 65}, "packets/sec", true},
	} {
		change := parseText(t, benchRuns("BenchmarkA", tc.change...))
		var out strings.Builder
		err := abReport(&out, parent, change, tc.metric, 3)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected failure %v\n%s", tc.name, err, out.String())
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: regression passed\n%s", tc.name, out.String())
		}
	}
}

// TestABTable checks the printed row: median [Q1–Q3] per side, the
// median delta and both sides' allocs/op, for benchmarks on both sides.
func TestABTable(t *testing.T) {
	parent := parseText(t, benchRuns("BenchmarkA", 100, 200, 400)+benchRuns("BenchmarkOnlyParent", 1))
	change := parseText(t, benchRuns("BenchmarkA", 50, 100, 200))
	var out strings.Builder
	if err := abReport(&out, parent, change, "ns/op", 3); err != nil {
		t.Fatal(err)
	}
	want := "| `BenchmarkA` | 200 [150–300] | 100 [75–150] | -50.0% | 5 | 5 |\n"
	if !strings.Contains(out.String(), want) {
		t.Errorf("table:\n%s\nwant row:\n%s", out.String(), want)
	}
	if strings.Contains(out.String(), "OnlyParent") {
		t.Errorf("one-sided benchmark tabulated:\n%s", out.String())
	}
	if err := abReport(&out, parent, parseText(t, benchRuns("BenchmarkB", 1)), "ns/op", 3); err == nil {
		t.Error("runs with no common benchmark compared without error")
	}
}

func TestHuman(t *testing.T) {
	for v, want := range map[float64]string{3.4712e6: "3.47M", 28512: "28.5k", 1234.4: "1234", 412.34: "412.3", 0: "0", 2: "2"} {
		if got := human(v); got != want {
			t.Errorf("human(%v) = %q, want %q", v, got, want)
		}
	}
}
