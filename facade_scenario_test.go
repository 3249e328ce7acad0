package booters

// The scenario regression suite: every takedown fixture's injected NB2
// coefficient must be recovered — within the manifest's tolerance — on
// each delivery path the pipeline supports (single-threaded batch,
// ordered streaming, unordered hostile replay, and the networked
// sensor→collector wire), and the hostile-input transforms must never
// change a weekly panel. The golden manifests under testdata/scenario
// pin the catalog's ground truth; regenerate them with
//
//	go test -run TestScenarioGoldenManifests -update
//
// after an intentional catalog or generator change.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"booters/internal/ingest"
	"booters/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden scenario manifests under testdata/scenario")

// recoveryScenarios are the catalog fixtures with analytic takedown
// ground truth; each must recover on every delivery path.
var recoveryScenarios = []string{"takedown-sharp", "takedown-migration", "takedown-wave"}

var (
	scenarioRunMu    sync.Mutex
	scenarioRunCache = map[string]*scenario.Run{}
)

// cachedScenarioRun generates a catalog scenario once per test process;
// generation is deterministic and runs are only ever read, so parallel
// subtests share them safely.
func cachedScenarioRun(t testing.TB, spec string) *scenario.Run {
	t.Helper()
	scenarioRunMu.Lock()
	defer scenarioRunMu.Unlock()
	if run, ok := scenarioRunCache[spec]; ok {
		return run
	}
	run, err := GenerateScenario(spec)
	if err != nil {
		t.Fatalf("generate %s: %v", spec, err)
	}
	scenarioRunCache[spec] = run
	return run
}

// cachedHostileTwin generates the named catalog scenario with a hostile
// delivery layer on top — duplicates, bounded reordering, sensor clock
// skew — which forces the order-tolerant replay path.
func cachedHostileTwin(t testing.TB, spec string) *scenario.Run {
	t.Helper()
	key := spec + "+hostile"
	scenarioRunMu.Lock()
	defer scenarioRunMu.Unlock()
	if run, ok := scenarioRunCache[key]; ok {
		return run
	}
	cfg, err := scenario.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hostile = &scenario.HostileSpec{DuplicatePct: 15, ReorderSeconds: 90, SkewSeconds: 30}
	run, err := scenario.Generate(cfg)
	if err != nil {
		t.Fatalf("generate hostile %s: %v", spec, err)
	}
	scenarioRunCache[key] = run
	return run
}

// verifyScenarioRecovery asserts the full ground-truth chain on a closed
// pipeline result: the weekly panel equals the plan exactly, and the NB2
// fit recovers every injected coefficient within its tolerance.
func verifyScenarioRecovery(t *testing.T, m *scenario.Manifest, res *ingest.Result) {
	t.Helper()
	if err := m.VerifyPanel(res.Global); err != nil {
		t.Fatal(err)
	}
	model, err := m.Fit(res.Global)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyFit(model); err != nil {
		t.Error(err)
	}
}

func TestScenarioRecoveryBatch(t *testing.T) {
	for _, spec := range recoveryScenarios {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			run := cachedScenarioRun(t, spec)
			res, err := ingest.Batch(ingest.Config{
				Shards: 1,
				Start:  run.Config.Start,
				End:    run.Config.End(),
			}, run.Packets)
			if err != nil {
				t.Fatal(err)
			}
			verifyScenarioRecovery(t, run.Manifest, res)
		})
	}
}

func TestScenarioRecoveryStreaming(t *testing.T) {
	for _, spec := range recoveryScenarios {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			run := cachedScenarioRun(t, spec)
			res, err := ReplayScenario(run, 3)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Late != 0 {
				t.Errorf("ordered streaming dropped %d packets as late", res.Stats.Late)
			}
			verifyScenarioRecovery(t, run.Manifest, res)
		})
	}
}

func TestScenarioRecoveryUnordered(t *testing.T) {
	for _, spec := range recoveryScenarios {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			run := cachedHostileTwin(t, spec)
			if !run.RequiresUnordered() {
				t.Fatal("hostile twin should demand an order-tolerant pipeline")
			}
			res, err := ReplayScenario(run, 4)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Late != 0 {
				t.Errorf("watermark-lagged unordered replay dropped %d packets as late", res.Stats.Late)
			}
			verifyScenarioRecovery(t, run.Manifest, res)
		})
	}
}

func TestScenarioRecoveryWire(t *testing.T) {
	for _, spec := range recoveryScenarios {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			run := cachedScenarioRun(t, spec)
			dir := filepath.Join(t.TempDir(), "capture")
			n, err := RecordSpool(dir, run.Stream())
			if err != nil {
				t.Fatal(err)
			}
			// A collector's pipeline: order-tolerant (sensors interleave)
			// over the scenario span, exactly how booterserve -listen
			// -scenario builds it.
			in, err := ingest.New(ingest.Config{
				Shards:    3,
				Start:     run.Config.Start,
				End:       run.Config.End(),
				Unordered: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			col, err := ListenWire(in, "127.0.0.1:0", "tok")
			if err != nil {
				t.Fatal(err)
			}
			rep, err := ShipSpool(col.Addr().String(), "tok", 1, dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Acked != n {
				t.Fatalf("collector acked %d of %d shipped records", rep.Acked, n)
			}
			col.Close()
			res, err := in.Close()
			if err != nil {
				t.Fatal(err)
			}
			verifyScenarioRecovery(t, run.Manifest, res)
		})
	}
}

// TestScenarioHostilePanelEquivalence is the hostile-input property: a
// stream with 25% duplicated packets, 120-second bounded reordering and
// ±45-second per-sensor clock skew must produce a weekly panel identical
// to the clean run's — every series, not just the global one.
func TestScenarioHostilePanelEquivalence(t *testing.T) {
	run := cachedScenarioRun(t, "hostile-flood")
	m := run.Manifest
	if m.Hostile == nil || m.Hostile.HostilePackets != len(run.Hostile) {
		t.Fatalf("manifest hostile truth %+v does not match the generated twin (%d packets)", m.Hostile, len(run.Hostile))
	}
	if len(run.Hostile) <= len(run.Packets) {
		t.Fatalf("duplication added no packets: hostile %d vs clean %d", len(run.Hostile), len(run.Packets))
	}

	clean, err := ingest.Batch(ingest.Config{
		Shards: 1,
		Start:  run.Config.Start,
		End:    run.Config.End(),
	}, run.Packets)
	if err != nil {
		t.Fatal(err)
	}
	hostile, err := ReplayScenario(run, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hostile.Stats.Late != 0 {
		t.Errorf("hostile replay dropped %d packets as late", hostile.Stats.Late)
	}
	if got, want := hostile.Stats.Packets, uint64(len(run.Hostile)); got != want {
		t.Errorf("hostile replay accepted %d packets, want %d", got, want)
	}

	if err := m.VerifyPanel(clean.Global); err != nil {
		t.Errorf("clean run: %v", err)
	}
	if err := m.VerifyPanel(hostile.Global); err != nil {
		t.Errorf("hostile run: %v", err)
	}
	if hostile.Stats.Attacks != clean.Stats.Attacks || hostile.Stats.Scans != clean.Stats.Scans {
		t.Errorf("classification diverged: hostile %d attacks/%d scans, clean %d/%d",
			hostile.Stats.Attacks, hostile.Stats.Scans, clean.Stats.Attacks, clean.Stats.Scans)
	}
	if !reflect.DeepEqual(hostile.Panel, clean.Panel) {
		t.Error("weekly panel diverged under hostile delivery")
	}
}

// TestScenarioCorruptSpoolSurfacesDataLoss is the adversarial-corruption
// property: flipping bytes inside a recorded segment must never fail or
// silently skew a replay — the complete records before the tear are
// delivered and the loss is reported against the damaged segment.
func TestScenarioCorruptSpoolSurfacesDataLoss(t *testing.T) {
	run := cachedScenarioRun(t, "mitigation-cap")
	dir := filepath.Join(t.TempDir(), "spool")
	n, err := RecordSpoolWith(dir, run.Packets, SpoolRecordOptions{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := scenario.CorruptSpool(dir, run.Config.Seed)
	if err != nil {
		t.Fatal(err)
	}

	in, err := ingest.New(ingest.Config{
		Shards:    2,
		Start:     run.Config.Start,
		End:       run.Config.End(),
		Unordered: run.RequiresUnordered(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplaySpoolWindow(in, dir, SpoolReplayOptions{})
	if err != nil {
		t.Fatalf("corruption must be tolerated and reported, not fail the replay: %v", err)
	}
	if _, err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.Datagrams >= n {
		t.Errorf("replay delivered %d of %d records from a torn spool — corruption went unnoticed", rep.Datagrams, n)
	}
	if len(rep.DataLoss) == 0 {
		t.Fatalf("corrupted segment %s did not surface in the replay report", seg)
	}
	found := false
	for _, loss := range rep.DataLoss {
		if strings.Contains(loss, seg) {
			found = true
		}
	}
	if !found {
		t.Errorf("data-loss report %v does not name the corrupted segment %s", rep.DataLoss, seg)
	}
}

// TestScenarioMitigationRecovery replays the pooled-victim scenario with
// a MitigationSink attached and checks the what-if accounting against
// the manifest's precomputed ground truth.
func TestScenarioMitigationRecovery(t *testing.T) {
	run := cachedScenarioRun(t, "mitigation-cap")
	m := run.Manifest
	if m.Mitigation == nil {
		t.Fatal("mitigation-cap manifest carries no mitigation truth")
	}
	sink := ingest.NewMitigationSink(run.Config.Mitigation.PerVictimWeekly)
	res, err := ReplayScenario(run, 3, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyPanel(res.Global); err != nil {
		t.Fatal(err)
	}
	got := sink.Result()
	if got.AttacksAdmitted != m.Mitigation.ExpectedAdmitted || got.AttacksMitigated != m.Mitigation.ExpectedMitigated {
		t.Errorf("mitigation accounting: admitted %d / mitigated %d, manifest says %d / %d",
			got.AttacksAdmitted, got.AttacksMitigated, m.Mitigation.ExpectedAdmitted, m.Mitigation.ExpectedMitigated)
	}
	if total := got.AttacksAdmitted + got.AttacksMitigated; total != m.Attacks {
		t.Errorf("admitted+mitigated = %d, want every attack flow (%d)", total, m.Attacks)
	}
}

// TestScenarioPanelSelfReport checks the facade bridge: a scenario with
// a scrape stream yields a dataset.Panel whose self-report side was
// rebuilt from the streamed events and matches the bundled reference.
func TestScenarioPanelSelfReport(t *testing.T) {
	run := cachedScenarioRun(t, "takedown-sharp")
	if run.Scrape == nil || run.SelfReport == nil {
		t.Fatal("takedown-sharp should carry a scrape stream")
	}
	res, err := ingest.Batch(ingest.Config{
		Shards: 1,
		Start:  run.Config.Start,
		End:    run.Config.End(),
	}, run.Packets)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ScenarioPanel(run, res)
	if err != nil {
		t.Fatal(err)
	}
	if p.SelfReport == nil {
		t.Fatal("ScenarioPanel left the self-report side empty")
	}
	if got, want := len(p.SelfReport.Sites), len(run.SelfReport.Sites); got != want {
		t.Fatalf("collected %d sites from the scrape stream, reference has %d", got, want)
	}
	if !reflect.DeepEqual(p.SelfReport.Churn, run.SelfReport.Churn) {
		t.Error("churn series rebuilt from the scrape stream diverged from the bundled reference")
	}
}

// TestScenarioGoldenManifests pins every catalog scenario's ground truth
// to a checked-in fixture: a drift in the generator, the planner or the
// manifest schema shows up as a byte diff here before it can silently
// move a recovery tolerance.
func TestScenarioGoldenManifests(t *testing.T) {
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			run := cachedScenarioRun(t, name)
			got, err := run.Manifest.JSON()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "scenario", name+".manifest.json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with: go test -run TestScenarioGoldenManifests -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("manifest for %s drifted from its golden fixture %s (intentional changes: go test -run TestScenarioGoldenManifests -update)", name, path)
			}
		})
	}
}
