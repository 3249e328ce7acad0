package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/protocols"
)

// sinkTestConfig is testConfig plus a queue deep enough that no batch or
// watermark envelope ever finds it full: with nothing to shed, every shed
// policy must be byte-identical to the batch reference, deterministically.
func sinkTestConfig(shards, weeks int, shed ShedPolicy, sinks ...Sink) Config {
	cfg := testConfig(shards, weeks)
	cfg.QueueDepth = 4096
	cfg.Shed = shed
	cfg.Sinks = sinks
	return cfg
}

// TestSinksMatchBatchAcrossShedModes is the fan-out equivalence guarantee:
// for every shedding mode and several shard counts, a streaming run with
// the top-K and NDJSON sinks registered produces the same panel, the same
// rankings and the same flow lines as the single-threaded batch reference.
func TestSinksMatchBatchAcrossShedModes(t *testing.T) {
	packets := testStream(t, 3, 90)

	wantTopK := NewTopKSink(5)
	var wantNDJSON bytes.Buffer
	wantFlows := &flowLog{}
	want, err := Batch(sinkTestConfig(1, 3, ShedBlock, wantTopK, NewNDJSONSink(&wantNDJSON), wantFlows), packets)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Attacks == 0 || want.Stats.Scans == 0 {
		t.Fatalf("degenerate batch reference: %+v", want.Stats)
	}
	if len(wantTopK.TopCountries()) == 0 || len(wantTopK.TopProtocols()) == 0 {
		t.Fatal("batch top-K sink is empty")
	}

	for _, shed := range []ShedPolicy{ShedBlock, ShedDropNewest, ShedDropOldest} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/shards=%d", shed, shards), func(t *testing.T) {
				topk := NewTopKSink(5)
				var ndjson bytes.Buffer
				gotFlows := &flowLog{}
				got := runStream(t, sinkTestConfig(shards, 3, shed, topk, NewNDJSONSink(&ndjson), gotFlows), packets)
				compareResults(t, want, got)
				compareFlows(t, wantFlows, gotFlows)
				if !reflect.DeepEqual(topk.TopCountries(), wantTopK.TopCountries()) {
					t.Errorf("top countries: got %v want %v", topk.TopCountries(), wantTopK.TopCountries())
				}
				if !reflect.DeepEqual(topk.TopProtocols(), wantTopK.TopProtocols()) {
					t.Errorf("top protocols: got %v want %v", topk.TopProtocols(), wantTopK.TopProtocols())
				}
				if got, want := sortedLines(ndjson.String()), sortedLines(wantNDJSON.String()); !reflect.DeepEqual(got, want) {
					t.Errorf("ndjson lines differ: got %d lines want %d", len(got), len(want))
				}
			})
		}
	}
}

// sortedLines splits NDJSON output into a sorted line multiset (line order
// across shards is arrival order, so comparisons must be order-free).
func sortedLines(s string) []string {
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	sort.Strings(lines)
	return lines
}

// TestTopKSinkRanking cross-checks the sink's online ranking against an
// independent recount over the logged flows, and the k-truncation.
func TestTopKSinkRanking(t *testing.T) {
	packets := testStream(t, 2, 120)
	topk := NewTopKSink(3)
	flows := &flowLog{}
	if _, err := Batch(sinkTestConfig(1, 2, ShedBlock, topk, flows), packets); err != nil {
		t.Fatal(err)
	}

	tbl := geo.NewTable()
	byCountry := make(map[string]int)
	byProto := make(map[protocols.Protocol]int)
	for i := range flows.flows {
		f := &flows.flows[i]
		if honeypot.Classify(f) != honeypot.Attack {
			continue
		}
		byProto[f.Key.Proto]++
		if countries, ok := tbl.Lookup(f.Key.Victim); ok {
			for _, c := range countries {
				byCountry[c]++
			}
		}
	}

	countries := topk.TopCountries()
	if len(countries) != 3 {
		t.Fatalf("top countries: got %d rows want 3", len(countries))
	}
	for i, row := range countries {
		if byCountry[row.Country] != row.Attacks {
			t.Errorf("country %s: sink says %d, recount says %d", row.Country, row.Attacks, byCountry[row.Country])
		}
		if i > 0 && row.Attacks > countries[i-1].Attacks {
			t.Errorf("country ranking not descending at %d", i)
		}
	}
	protos := topk.TopProtocols()
	if len(protos) == 0 || len(protos) > 3 {
		t.Fatalf("top protocols: got %d rows", len(protos))
	}
	for _, row := range protos {
		if byProto[row.Proto] != row.Attacks {
			t.Errorf("protocol %v: sink says %d, recount says %d", row.Proto, row.Attacks, byProto[row.Proto])
		}
	}
}

// TestNDJSONFlowLine pins the line encoding: fixed field order, RFC 3339
// UTC timestamps, and values that match the flow.
func TestNDJSONFlowLine(t *testing.T) {
	first := time.Date(2018, time.October, 1, 12, 0, 0, 500, time.UTC)
	last := first.Add(90 * time.Second)
	f := &honeypot.Flow{
		Key:             honeypot.FlowKey{Victim: netip.MustParseAddr("10.1.2.3"), Proto: protocols.DNS},
		First:           first,
		Last:            last,
		PacketsBySensor: map[int]int{2: 7, 3: 1},
		TotalPackets:    8,
		TotalBytes:      448,
	}
	line := string(appendFlowJSON(nil, f, honeypot.Attack))
	if !strings.HasSuffix(line, "}\n") {
		t.Fatalf("line not newline-terminated: %q", line)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("line is not valid JSON: %v\n%s", err, line)
	}
	want := map[string]any{
		"class":   "attack",
		"proto":   protocols.DNS.String(),
		"victim":  "10.1.2.3",
		"first":   first.Format(time.RFC3339Nano),
		"last":    last.Format(time.RFC3339Nano),
		"packets": float64(8),
		"bytes":   float64(448),
		"peak":    float64(7),
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("line fields: got %v want %v", m, want)
	}
}

// failWriter fails every write, simulating a broken export stream.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("export stream down") }

// TestSinkErrorSurvivesClose checks that a failing sink reports its error
// from Close while the panel Result is still returned.
func TestSinkErrorSurvivesClose(t *testing.T) {
	packets := testStream(t, 2, 60)
	in, err := New(sinkTestConfig(2, 2, ShedBlock, NewNDJSONSink(failWriter{})))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets {
		if err := in.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := in.Close()
	if err == nil {
		t.Error("Close: want sink write error")
	}
	if res == nil {
		t.Fatal("Close: sink failure must not discard the panel")
	}
	if res.Stats.Attacks == 0 {
		t.Error("panel lost despite sink-failure guarantee")
	}
}

// TestExtraPanelSink registers a second, explicit panel sink and checks it
// agrees with the pipeline's built-in one.
func TestExtraPanelSink(t *testing.T) {
	packets := testStream(t, 2, 60)
	extra := &panelSink{}
	res := runStream(t, sinkTestConfig(2, 2, ShedBlock, extra), packets)
	dup := extra.res
	if dup == nil {
		t.Fatal("extra panel sink has no result after Close")
	}
	compareSeries(t, "extra panel global", res.Global, dup.Global)
	if dup.Stats.Attacks != res.Stats.Attacks || dup.Stats.Flows != res.Stats.Flows {
		t.Errorf("extra panel stats: got %+v want %+v", dup.Stats, res.Stats)
	}
}

// TestSinkOpenFailureUnwinds checks that when a later sink's Open fails,
// the sinks already opened are flushed — in particular NDJSONSink's
// writer goroutine stops instead of leaking.
func TestSinkOpenFailureUnwinds(t *testing.T) {
	used := NewTopKSink(1)
	if _, err := used.Open(&Config{}, 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ndjson := NewNDJSONSink(&buf)
	if _, err := New(sinkTestConfig(2, 1, ShedBlock, ndjson, used)); err == nil {
		t.Fatal("New with a used sink: want error")
	}
	select {
	case <-ndjson.done:
		// Writer goroutine exited: the unwind flushed the sink.
	case <-time.After(5 * time.Second):
		t.Error("NDJSON writer goroutine leaked after failed New")
	}
}

// TestSinkReuseRejected checks that a sink instance cannot serve two runs.
func TestSinkReuseRejected(t *testing.T) {
	sink := NewTopKSink(3)
	cfg := sinkTestConfig(1, 1, ShedBlock, sink)
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Error("New with a used sink: want error")
	}
}
