package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run the command instead of the tests,
// so the tests below drive booteringest end to end as a separate process.
const runMainEnv = "BOOTERINGEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// booteringest runs the command with args and returns its combined
// output.
func booteringest(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestRecordThenReplayVerifiesManifest pins record once, replay later: a
// spool recorded from a scenario replays into a panel sized from the
// spool index (no flow out of span) that the recorded manifest verifies.
func TestRecordThenReplayVerifiesManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sc")
	if out, err := booteringest(t, "-scenario", "takedown-sharp", "-record", dir); err != nil {
		t.Fatalf("record: %v\n%s", err, out)
	}
	out, err := booteringest(t, "-replay", dir)
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	for _, want := range []string{
		", 0 out-of-span\n",
		"scenario takedown-sharp: panel equals the planned weekly counts (104 weeks)",
		"effect Takedown: fitted",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output lacks %q:\n%s", want, out)
		}
	}

	// A window covers part of the scenario, so the manifest cannot
	// verify it; the run says so instead of staying silent.
	out, err = booteringest(t, "-replay", dir, "-from", "2018-01-01")
	if err != nil {
		t.Fatalf("windowed replay: %v\n%s", err, out)
	}
	if !strings.Contains(out, "verification skipped") || strings.Contains(out, "panel equals") {
		t.Errorf("windowed replay should skip verification and say so:\n%s", out)
	}

	// The spool fixes the workload: -weeks is rejected, not ignored.
	out, err = booteringest(t, "-replay", dir, "-weeks", "30")
	if err == nil || !strings.Contains(out, "-weeks only applies to the market-driven stream") {
		t.Errorf("-replay with -weeks: err %v, output:\n%s", err, out)
	}
}
