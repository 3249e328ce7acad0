package serve

import (
	"testing"
	"time"

	"booters/internal/geo"
	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/protocols"
	"booters/internal/scenario"
)

var testStart = time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC)

// testIngestConfig is a small rolling pipeline configuration with
// watermarks frequent enough to seal weeks mid-run.
func testIngestConfig(shards, weeks int) ingest.Config {
	return ingest.Config{
		Shards:         shards,
		Start:          testStart,
		End:            testStart.AddDate(0, 0, 7*weeks-1),
		Rolling:        true,
		BatchSize:      32,
		WatermarkEvery: 128,
	}
}

// testStream generates a deterministic packet stream.
func testStream(t testing.TB, weeks int, attacksPerWeek float64) []honeypot.Packet {
	t.Helper()
	run, err := scenario.Generate(scenario.Config{
		Seed:            3,
		Start:           testStart,
		Weeks:           weeks,
		Sensors:         4,
		BaselineAttacks: attacksPerWeek,
		Market:          &scenario.MarketDynamics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return run.Packets
}

// servedRun feeds a stream through a rolling pipeline wired into a fresh
// engine and returns the engine after Close (so its store holds the final
// snapshot).
func servedRun(t testing.TB, weeks int, attacksPerWeek float64) (*Engine, *ingest.Result) {
	t.Helper()
	in, err := ingest.New(testIngestConfig(2, weeks))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Config{Ingest: in})
	if err := in.OnSnapshot(eng.Publish); err != nil {
		t.Fatal(err)
	}
	eng.Publish(in.Snapshot())
	for _, p := range testStream(t, weeks, attacksPerWeek) {
		if err := in.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	return eng, res
}

// TestStoreSeqGuard pins the copy-on-write store's invariant: stale
// snapshots (lower or equal sequence) never displace the current one.
func TestStoreSeqGuard(t *testing.T) {
	var st Store
	if st.Load() != nil {
		t.Fatal("empty store is not empty")
	}
	a := &ingest.Snapshot{Seq: 1}
	b := &ingest.Snapshot{Seq: 2}
	if !st.Publish(a) || st.Load() != a {
		t.Fatal("first publish rejected")
	}
	if !st.Publish(b) || st.Load() != b {
		t.Fatal("newer publish rejected")
	}
	if st.Publish(a) {
		t.Fatal("stale publish accepted")
	}
	if st.Publish(&ingest.Snapshot{Seq: 2}) {
		t.Fatal("equal-seq publish accepted")
	}
	if st.Load() != b {
		t.Fatal("store moved backwards")
	}
	if st.Swaps() != 2 {
		t.Fatalf("swaps: got %d want 2", st.Swaps())
	}
}

// TestStorePublishAllocFree: Publish runs as an ingest.OnSnapshot
// subscriber on a shard worker while it holds the publish lock, so a swap
// must stay O(1) and allocation-free.
func TestStorePublishAllocFree(t *testing.T) {
	var st Store
	snaps := [2]*ingest.Snapshot{{Seq: 1}, {Seq: 2}}
	st.Publish(snaps[0])
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		next := snaps[i%2]
		next.Seq = st.Load().Seq + 1
		if !st.Publish(next) {
			t.Fatal("newer publish rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("Store.Publish: %v allocs per swap, want 0", allocs)
	}
}

// TestEngineQueriesMatchSnapshot checks each query against the final
// snapshot's own numbers.
func TestEngineQueriesMatchSnapshot(t *testing.T) {
	eng, res := servedRun(t, 4, 50)
	snap := eng.Snapshot()
	if snap == nil || !snap.Final {
		t.Fatalf("store does not hold the final snapshot: %+v", snap)
	}

	st := eng.Status()
	if !st.Final || st.Attacks != res.Stats.Attacks || st.Flows != res.Stats.Flows {
		t.Errorf("status: %+v vs result %+v", st, res.Stats)
	}
	if st.LivePackets != res.Stats.Packets+res.Stats.Late+res.Stats.Shed {
		t.Errorf("live packets: got %d", st.LivePackets)
	}

	global, err := eng.Series("", "")
	if err != nil || global.Total() != float64(res.Stats.Attacks) {
		t.Errorf("global series: total %v err %v", global.Total(), err)
	}
	us, err := eng.Series(geo.US, "")
	if err != nil || us.Total() != res.Country(geo.US).Total() {
		t.Errorf("US series: err %v", err)
	}
	dns, err := eng.Series("", protocols.DNS.String())
	if err != nil || dns.Total() != res.Protocol(protocols.DNS).Total() {
		t.Errorf("DNS series: err %v", err)
	}
	cell, err := eng.Series(geo.US, protocols.DNS.String())
	if err != nil || cell.Total() != res.CountryProtocol(geo.US, protocols.DNS).Total() {
		t.Errorf("US/DNS series: err %v", err)
	}
	if _, err := eng.Series("XX", ""); err == nil {
		t.Error("unknown country: want error")
	}
	if _, err := eng.Series("", "nope"); err == nil {
		t.Error("unknown protocol: want error")
	}
	if _, err := eng.Series("XX", protocols.DNS.String()); err == nil {
		t.Error("unknown country with a protocol: want error")
	}
	if _, err := eng.Series(geo.US, "nope"); err == nil {
		t.Error("country with an unknown protocol: want error")
	}

	top, err := eng.TopCountries(3)
	if err != nil || len(top) != 3 {
		t.Fatalf("top countries: %v err %v", top, err)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Attacks > top[i-1].Attacks {
			t.Errorf("top countries not descending: %v", top)
		}
	}
	if got := top[0].Attacks; got != int(res.Country(top[0].Key).Total()) {
		t.Errorf("top country count: got %d", got)
	}
	protosTop, err := eng.TopProtocols(0)
	if err != nil || len(protosTop) == 0 {
		t.Fatalf("top protocols: %v err %v", protosTop, err)
	}

	if _, err := eng.SpoolInfo(); err != ErrNoSpool {
		t.Errorf("spool info without a dir: got %v want ErrNoSpool", err)
	}
}

// TestEngineEmptyStore pins the before-first-snapshot contract.
func TestEngineEmptyStore(t *testing.T) {
	eng := NewEngine(Config{})
	if _, err := eng.Series("", ""); err != ErrNoSnapshot {
		t.Errorf("Series: got %v want ErrNoSnapshot", err)
	}
	if _, err := eng.TopCountries(5); err != ErrNoSnapshot {
		t.Errorf("TopCountries: got %v want ErrNoSnapshot", err)
	}
	if _, err := eng.Model(testStart, testStart.AddDate(0, 0, 7)); err != ErrNoSnapshot {
		t.Errorf("Model: got %v want ErrNoSnapshot", err)
	}
	if st := eng.Status(); st.Seq != 0 || st.Swaps != 0 {
		t.Errorf("empty status: %+v", st)
	}
}

// TestModelMemoization checks the fit memo end to end: a repeat query is
// a cache hit returning the same model, and a snapshot swap invalidates
// the memo.
func TestModelMemoization(t *testing.T) {
	eng, _ := servedRun(t, 22, 30)
	from, to := testStart, testStart.AddDate(0, 0, 7*22)

	m1, err := eng.Model(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Series.Len() != 22 {
		t.Fatalf("model window: %d weeks", m1.Series.Len())
	}
	m2, err := eng.Model(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("repeat query refitted instead of serving the memo")
	}
	if hits, misses := eng.ModelCacheStats(); hits != 1 || misses != 1 {
		t.Errorf("cache counters: hits=%d misses=%d want 1/1", hits, misses)
	}

	// A different window is its own entry.
	if _, err := eng.Model(from, testStart.AddDate(0, 0, 7*21)); err != nil {
		t.Fatal(err)
	}
	if _, misses := eng.ModelCacheStats(); misses != 2 {
		t.Errorf("second window did not miss: misses=%d", misses)
	}

	// A snapshot swap invalidates: same window, fresh fit.
	next := *eng.Snapshot()
	next.Seq++
	eng.Publish(&next)
	m3, err := eng.Model(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Error("snapshot swap did not invalidate the memo")
	}
	if _, misses := eng.ModelCacheStats(); misses != 3 {
		t.Errorf("post-swap query did not miss: misses=%d", misses)
	}
}

// TestModelWindowValidation pins the error paths: inverted/empty windows
// and too-short spans fail with errors, not panics.
func TestModelWindowValidation(t *testing.T) {
	eng, _ := servedRun(t, 22, 30)
	if _, err := eng.Model(testStart.AddDate(0, 0, 70), testStart); err == nil {
		t.Error("inverted window: want error")
	}
	if _, err := eng.Model(testStart, testStart.AddDate(0, 0, 14)); err == nil {
		t.Error("2-week window: want error (series too short)")
	}
}
