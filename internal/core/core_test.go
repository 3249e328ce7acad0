package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"booters/internal/dataset"
)

var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = NewEnv(20191021)
	})
	if envErr != nil {
		t.Fatalf("NewEnv: %v", envErr)
	}
	return envVal
}

func TestAllExperimentsRegistered(t *testing.T) {
	exps := All()
	if len(exps) != 15 {
		t.Fatalf("got %d experiments, want 15 (3 tables + 8 figures + 4 methodology)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Figure 1", "Figure 8"} {
		if !seen[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestRunAllChecksPass(t *testing.T) {
	env := testEnv(t)
	results, err := RunAll(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(All()) {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Rendered == "" {
			t.Errorf("%s: empty rendering", r.ID)
		}
		if len(r.Checks) == 0 {
			t.Errorf("%s: no checks", r.ID)
		}
		for _, c := range r.Checks {
			if !c.Pass {
				t.Errorf("%s / %s: paper %q, measured %q", r.ID, c.Name, c.Paper, c.Measured)
			}
		}
	}
}

func TestRunOne(t *testing.T) {
	env := testEnv(t)
	r, err := RunOne(env, "table 3") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "Table 3" {
		t.Errorf("ID = %s", r.ID)
	}
	if _, err := RunOne(env, "Table 9"); err == nil {
		t.Error("RunOne accepted unknown experiment")
	}
}

func TestMarkdownReport(t *testing.T) {
	env := testEnv(t)
	r, err := RunOne(env, "Table 1")
	if err != nil {
		t.Fatal(err)
	}
	md := Markdown(42, []*Result{r})
	for _, want := range []string{"# EXPERIMENTS", "seed 42", "## Table 1", "| check | paper | measured | pass |", "```"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	if !r.Passed() {
		t.Error("Table 1 result should pass")
	}
}

func TestCheckFailureRendering(t *testing.T) {
	r := &Result{ID: "X", Title: "t"}
	r.check("a", "p", "m", false)
	if r.Passed() {
		t.Error("failed check should fail the result")
	}
	md := Markdown(1, []*Result{r})
	if !strings.Contains(md, "❌") {
		t.Error("failure marker missing")
	}
	if !strings.Contains(md, "0 / 1") {
		t.Error("pass count missing")
	}
}

// TestExhibitsOnLoadedPanel runs every exhibit on a panel loaded from CSV,
// the load-your-own-data workflow: the panel has no planted truth and no
// self-report side. No exhibit may panic. The self-report exhibits
// return an error, and Table 1 runs without the planted-truth comparison.
func TestExhibitsOnLoadedPanel(t *testing.T) {
	var buf bytes.Buffer
	if err := dataset.WritePanelCSV(&buf, testEnv(t).Panel); err != nil {
		t.Fatal(err)
	}
	panel, err := dataset.LoadPanelCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnvFromPanel(panel)
	if err != nil {
		t.Fatal(err)
	}
	if env.Manifest != nil {
		t.Fatal("a loaded panel's env carries a manifest")
	}
	needsSelfReport := map[string]bool{"Figure 7": true, "Figure 8": true, "Section 3": true}
	for _, exp := range All() {
		t.Run(exp.ID, func(t *testing.T) {
			res, err := exp.Run(env)
			if needsSelfReport[exp.ID] {
				if err == nil {
					t.Error("ran on a panel with no self-report data")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Checks {
				if strings.Contains(c.Measured, "planted truth") {
					t.Errorf("%s compared against planted truth the panel does not have: %q", c.Name, c.Measured)
				}
			}
		})
	}
}

// TestFigure7NeedsTheMarket runs Figure 7 on a self-report panel collected
// from a scrape-event stream, which carries no market simulation: the
// exhibit must report an error, not dereference the missing market.
func TestFigure7NeedsTheMarket(t *testing.T) {
	env := *testEnv(t)
	panel := *env.Panel
	sr := *panel.SelfReport
	sr.Market = nil
	panel.SelfReport = &sr
	env.Panel = &panel
	if _, err := RunOne(&env, "Figure 7"); err == nil {
		t.Error("Figure 7 ran without the market simulation")
	}
}
