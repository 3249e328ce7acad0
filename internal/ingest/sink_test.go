package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/protocols"
	"booters/internal/scenario"
	"booters/internal/timeseries"
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
// the mitigation, NDJSON and flow-log sinks registered produces the same
// panel, the same admitted/mitigated split and the same flow lines as the
// single-threaded batch reference.
func TestSinksMatchBatchAcrossShedModes(t *testing.T) {
	packets := withVictimPool(t, testStream(t, 3, 90), 3)
	const perVictimWeekly = 3

	wantMitigation := NewMitigationSink(perVictimWeekly)
	var wantNDJSON bytes.Buffer
	wantFlows := &flowLog{}
	want, err := Batch(sinkTestConfig(1, 3, ShedBlock, wantMitigation, NewNDJSONSink(&wantNDJSON), wantFlows), packets)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Attacks == 0 || want.Stats.Scans == 0 {
		t.Fatalf("degenerate batch reference: %+v", want.Stats)
	}
	if m := wantMitigation.Result(); m.AttacksAdmitted == 0 || m.AttacksMitigated == 0 {
		t.Fatalf("degenerate mitigation reference: %d admitted, %d mitigated", m.AttacksAdmitted, m.AttacksMitigated)
	}

	for _, shed := range []ShedPolicy{ShedBlock, ShedDropNewest, ShedDropOldest} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/shards=%d", shed, shards), func(t *testing.T) {
				mitigation := NewMitigationSink(perVictimWeekly)
				var ndjson bytes.Buffer
				gotFlows := &flowLog{}
				got := runStream(t, sinkTestConfig(shards, 3, shed, mitigation, NewNDJSONSink(&ndjson), gotFlows), packets)
				compareResults(t, want, got)
				compareFlows(t, wantFlows, gotFlows)
				if g, w := mitigation.Result(), wantMitigation.Result(); !reflect.DeepEqual(g, w) {
					t.Errorf("mitigation: got %d admitted / %d mitigated (%v / %v), want %d / %d (%v / %v)",
						g.AttacksAdmitted, g.AttacksMitigated, g.Admitted.Values, g.Mitigated.Values,
						w.AttacksAdmitted, w.AttacksMitigated, w.Admitted.Values, w.Mitigated.Values)
				}
				if got, want := sortedLines(ndjson.String()), sortedLines(wantNDJSON.String()); !reflect.DeepEqual(got, want) {
					t.Errorf("ndjson lines differ: got %d lines want %d", len(got), len(want))
				}
			})
		}
	}
}

// withVictimPool merges into packets a second weeks-long stream whose
// attacks fall on a pool of 30 victims, several a week each, so a
// per-victim cap both admits and mitigates.
func withVictimPool(t *testing.T, packets []honeypot.Packet, weeks int) []honeypot.Packet {
	t.Helper()
	run, err := scenario.Generate(scenario.Config{
		Seed:            6,
		Start:           testStart,
		Weeks:           weeks,
		Sensors:         6,
		BaselineAttacks: 120,
		VictimPool:      30,
	})
	if err != nil {
		t.Fatal(err)
	}
	merged := append(slices.Clone(packets), run.Packets...)
	slices.SortFunc(merged, honeypot.ComparePackets)
	return merged
}

// sortedLines splits NDJSON output into a sorted line multiset (line order
// across shards is arrival order, so comparisons must be order-free).
func sortedLines(s string) []string {
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	sort.Strings(lines)
	return lines
}

// TestPanelRankingMatchesFlowRecount cross-checks the panel's country
// and protocol rankings against an independent recount over the logged
// in-span attack flows, ties and k-truncation included.
func TestPanelRankingMatchesFlowRecount(t *testing.T) {
	packets := testStream(t, 2, 120)
	flows := &flowLog{}
	res, err := Batch(sinkTestConfig(1, 2, ShedBlock, flows), packets)
	if err != nil {
		t.Fatal(err)
	}

	tbl := geo.NewTable()
	byCountry := make(map[string]int)
	byProto := make(map[protocols.Protocol]int)
	for i := range flows.flows {
		f := &flows.flows[i]
		if honeypot.Classify(f) != honeypot.Attack || res.Global.IndexOfTime(f.First) < 0 {
			continue
		}
		byProto[f.Key.Proto]++
		if countries, ok := tbl.Lookup(f.Key.Victim); ok {
			for _, c := range countries {
				byCountry[c]++
			}
		}
	}
	// The expected rankings cover every key of the panel, zero rows too:
	// descending by count, ties by country code or protocol order.
	var wantCountries, wantProtos []timeseries.Ranked
	for _, c := range geo.Countries() {
		wantCountries = append(wantCountries, timeseries.Ranked{Key: c, Attacks: byCountry[c]})
	}
	sort.Slice(wantCountries, func(i, j int) bool {
		a, b := wantCountries[i], wantCountries[j]
		return a.Attacks > b.Attacks || a.Attacks == b.Attacks && a.Key < b.Key
	})
	for _, p := range protocols.All() {
		wantProtos = append(wantProtos, timeseries.Ranked{Key: p.String(), Attacks: byProto[p]})
	}
	sort.SliceStable(wantProtos, func(i, j int) bool { return wantProtos[i].Attacks > wantProtos[j].Attacks })

	for _, k := range []int{1, 3, len(wantCountries), 50} {
		if got, want := res.TopCountries(k), wantCountries[:min(k, len(wantCountries))]; !reflect.DeepEqual(got, want) {
			t.Errorf("TopCountries(%d): got %v want %v", k, got, want)
		}
		if got, want := res.TopProtocols(k), wantProtos[:min(k, len(wantProtos))]; !reflect.DeepEqual(got, want) {
			t.Errorf("TopProtocols(%d): got %v want %v", k, got, want)
		}
	}
	if len(res.TopCountries(0)) != 10 {
		t.Errorf("TopCountries(0): got %d rows want 10", len(res.TopCountries(0)))
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

// TestSinkOpenFailureUnwinds checks that when a later sink's Open fails
// (here a MitigationSink without a positive cap), the sinks already opened are flushed — in particular NDJSONSink's
// writer goroutine stops instead of leaking.
func TestSinkOpenFailureUnwinds(t *testing.T) {
	var buf bytes.Buffer
	ndjson := NewNDJSONSink(&buf)
	if _, err := New(sinkTestConfig(2, 1, ShedBlock, ndjson, NewMitigationSink(0))); err == nil {
		t.Fatal("New with a zero mitigation cap: want error")
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
	for _, sink := range []Sink{NewMitigationSink(3), NewNDJSONSink(io.Discard)} {
		cfg := sinkTestConfig(1, 1, ShedBlock, sink)
		in, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New with a used %T: want error", sink)
		}
	}
}
