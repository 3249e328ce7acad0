package booters

import (
	"path/filepath"
	"testing"
	"time"

	"booters/internal/scenario"
)

// TestWireFacade drives the networked capture path end to end through
// the facade: record a synthetic stream to a spool, ship it over
// loopback TCP to a collector feeding a fresh ingestor, and check the
// resulting panel matches a direct in-memory run.
func TestWireFacade(t *testing.T) {
	run, err := scenario.Generate(scenario.Config{
		Seed:            DefaultSeed,
		Start:           time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC),
		Weeks:           4,
		BaselineAttacks: 50,
		Market:          &scenario.MarketDynamics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := run.Packets
	dir := filepath.Join(t.TempDir(), "capture")
	n, err := RecordSpool(dir, packets)
	if err != nil {
		t.Fatal(err)
	}

	direct, err := NewIngestor(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets {
		if err := direct.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	want, err := direct.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Attacks == 0 {
		t.Fatal("degenerate reference run")
	}

	in := newTolerantIngestor(t, 3)
	col, err := ListenWire(in, "127.0.0.1:0", "tok")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ShipSpool(col.Addr().String(), "tok", 9, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acked != n {
		t.Fatalf("acked %d of %d spooled records", rep.Acked, n)
	}
	if got := col.Offsets()[9]; got != n {
		t.Fatalf("collector offset %d, want %d", got, n)
	}
	col.Close()
	got, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Attacks != want.Stats.Attacks || got.Stats.Flows != want.Stats.Flows {
		t.Errorf("shipped stats: got %+v want %+v", got.Stats, want.Stats)
	}
	if gt, wt := got.Global.Total(), want.Global.Total(); gt != wt {
		t.Errorf("shipped global total: got %v want %v", gt, wt)
	}

	// A wrong token is refused permanently, not retried into oblivion.
	in2 := newTolerantIngestor(t, 1)
	defer in2.Close()
	col2, err := ListenWire(in2, "127.0.0.1:0", "right")
	if err != nil {
		t.Fatal(err)
	}
	defer col2.Close()
	if _, err := ShipSpool(col2.Addr().String(), "wrong", 9, dir); err == nil {
		t.Fatal("bad token accepted")
	}
}
