package cli

import (
	"bytes"
	"flag"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"booters/internal/obs"
	"booters/internal/scenario"
)

// newFlagSet returns a silent, error-returning flag set for parsing
// command lines in tests.
func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestOnlyRejectsExplicitFlagsOutsideTheirMode(t *testing.T) {
	cases := []struct {
		name string
		// check defines a command's flags, parses its command line and
		// applies its rule.
		check   func(fs *flag.FlagSet) error
		wantErr string
	}{
		{
			// booterserve -compress lz4 without -record ran anyway.
			name: "compress without record",
			check: func(fs *flag.FlagSet) error {
				rec := RecordFlags(fs, "")
				fs.Parse([]string{"-compress", "lz4"})
				return Only(fs, rec.Dir != "", "-record", "compress")
			},
			wantErr: "-compress only applies to -record",
		},
		{
			// bootersensor -spool DIR -seed 5 ran anyway: the old check
			// compared only -weeks/-attacks against copied defaults.
			name: "seed with a spool feed",
			check: func(fs *flag.FlagSet) error {
				spoolDir := fs.String("spool", "", "")
				WorkloadFlags(fs, "", time.Time{}, 4, 500)
				fs.Parse([]string{"-spool", "dir", "-seed", "5"})
				return Only(fs, *spoolDir == "", "generated streams", "seed", "weeks", "attacks")
			},
			wantErr: "-seed only applies to generated streams",
		},
		{
			// booteringest -replay DIR -weeks 30 was accepted; the panel
			// span comes from the spool index, so -weeks did nothing.
			name: "weeks with replay",
			check: func(fs *flag.FlagSet) error {
				rep := ReplayFlags(fs, "")
				WorkloadFlags(fs, "", time.Time{}, 12, 1000)
				fs.Parse([]string{"-replay", "dir", "-weeks", "30"})
				return Only(fs, rep.Dir == "", "the market-driven stream", "seed", "weeks", "attacks")
			},
			wantErr: "-weeks only applies to the market-driven stream",
		},
		{
			// Setting a flag to its default value is still a request the
			// mode cannot honour; the old literal comparisons missed it.
			name: "explicit default value",
			check: func(fs *flag.FlagSet) error {
				rep := ReplayFlags(fs, "")
				WorkloadFlags(fs, "", time.Time{}, 52, 500)
				fs.Parse([]string{"-replay", "dir", "-weeks", "52", "-attacks", "500"})
				return Only(fs, rep.Dir == "", "generated streams", "seed", "weeks", "attacks")
			},
			wantErr: "-weeks/-attacks only apply to generated streams",
		},
		{
			name: "applicable mode passes",
			check: func(fs *flag.FlagSet) error {
				rec := RecordFlags(fs, "")
				fs.Parse([]string{"-record", "dir", "-compress", "lz4"})
				return Only(fs, rec.Dir != "", "-record", "compress")
			},
		},
		{
			name: "defaults left alone pass",
			check: func(fs *flag.FlagSet) error {
				rep := ReplayFlags(fs, "")
				WorkloadFlags(fs, "", time.Time{}, 12, 1000)
				fs.Parse([]string{"-replay", "dir"})
				return Only(fs, rep.Dir == "", "the market-driven stream", "seed", "weeks", "attacks")
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.check(newFlagSet())
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.wantErr)):
				t.Fatalf("error = %v, want prefix %q", err, tc.wantErr)
			}
		})
	}
}

func TestExclusive(t *testing.T) {
	fs := newFlagSet()
	RecordFlags(fs, "")
	ReplayFlags(fs, "")
	fs.String("spool-info", "", "")
	fs.Parse([]string{"-record", "a", "-spool-info", "b"})
	if err := Exclusive(fs, "record", "replay", "spool-info"); err == nil ||
		err.Error() != "-record/-spool-info are mutually exclusive" {
		t.Fatalf("Exclusive = %v", err)
	}
	if err := Exclusive(fs, "record", "replay"); err != nil {
		t.Fatalf("one of two set: %v", err)
	}
}

// TestWorkloadMarketScenario pins the default workload: -seed/-weeks/
// -attacks parameterise the market scenario, and a non-positive -attacks
// is rejected instead of being silently replaced by a default rate.
func TestWorkloadMarketScenario(t *testing.T) {
	lg := slog.New(slog.NewTextHandler(io.Discard, nil))
	start := time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC)
	for _, attacks := range []string{"0", "-5"} {
		fs := newFlagSet()
		w := WorkloadFlags(fs, "", start, 4, 500)
		fs.Parse([]string{"-attacks", attacks})
		if _, err := w.Generate(lg); err == nil || !strings.Contains(err.Error(), "-attacks must be positive") {
			t.Errorf("-attacks %s: err = %v, want a rejection", attacks, err)
		}
	}

	fs := newFlagSet()
	w := WorkloadFlags(fs, "", start, 4, 500)
	fs.Parse([]string{"-seed", "5", "-weeks", "2", "-attacks", "40"})
	run, err := w.Generate(lg)
	if err != nil {
		t.Fatal(err)
	}
	m := run.Manifest
	if m.Name != "market" || m.Seed != 5 || m.Weeks != 2 || !m.Start.Equal(start) || run.Config.Market == nil {
		t.Fatalf("default workload: manifest %s seed %d, %d weeks from %v, market %v",
			m.Name, m.Seed, m.Weeks, m.Start, run.Config.Market)
	}
	if m.Scans != 2*20 {
		t.Errorf("scans = %d, want half the attack rate per week (40)", m.Scans)
	}
}

func TestScenarioList(t *testing.T) {
	var out bytes.Buffer
	if (&Workload{Spec: "takedown-sharp"}).List(&out) || out.Len() != 0 {
		t.Fatal("List printed the catalog for a scenario name")
	}
	if !(&Workload{Spec: "list"}).List(&out) || !strings.Contains(out.String(), "takedown-sharp") {
		t.Fatalf("List did not print the catalog:\n%s", out.String())
	}
}

// TestRecordReplaySpanAndManifest pins the record → replay contract: the
// replay's panel span is the span the spool's index attests, and the
// scenario manifest recorded next to the segments is found again and
// verifies the panel of the recorded stream.
func TestRecordReplaySpanAndManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")
	sc := &Workload{Spec: "takedown-sharp"}
	logs, err := obs.NewLog(io.Discard, "")
	if err != nil {
		t.Fatal(err)
	}
	run, err := sc.Generate(logs.Logger("test"))
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{Dir: dir, Codec: "lz4"}
	if err := rec.Write(logs, 0, run.Packets, run.Manifest); err != nil {
		t.Fatal(err)
	}

	rep := &Replay{Dir: dir}
	start, end, err := rep.Span()
	if err != nil {
		t.Fatal(err)
	}
	first, last := run.Packets[0].Time, run.Packets[len(run.Packets)-1].Time
	if !start.Equal(first) || !end.Equal(last) {
		t.Fatalf("Span = %v..%v, want the recorded stream's %v..%v", start, end, first, last)
	}
	if start.Before(run.Config.Start) || end.After(run.Config.End().Add(24*time.Hour)) {
		t.Fatalf("Span %v..%v outside the scenario span %v..%v", start, end, run.Config.Start, run.Config.End())
	}
	m, err := scenario.ReadSpoolManifest(dir)
	if err != nil || m == nil {
		t.Fatalf("Manifest = %v, %v; want the recorded manifest", m, err)
	}
	var out bytes.Buffer
	if err := Verify(&out, m, m.PlannedSeries()); err != nil {
		t.Fatalf("Verify on the planned panel: %v", err)
	}
	if !strings.Contains(out.String(), "panel equals the planned weekly counts") ||
		!strings.Contains(out.String(), "recovered") {
		t.Fatalf("Verify report:\n%s", out.String())
	}

	// A spool recorded without a scenario carries no manifest.
	plain := filepath.Join(t.TempDir(), "plain")
	if err := (&Record{Dir: plain, Codec: "none"}).Write(logs, 0, run.Packets[:100], nil); err != nil {
		t.Fatal(err)
	}
	if m, err := scenario.ReadSpoolManifest(plain); err != nil || m != nil {
		t.Fatalf("Manifest of a plain spool = %v, %v; want nil, nil", m, err)
	}
	if _, err := os.Stat(filepath.Join(plain, scenario.ManifestFile)); !os.IsNotExist(err) {
		t.Fatalf("plain recording wrote %s", scenario.ManifestFile)
	}
}
