package core

import (
	"fmt"
	"strings"

	"booters/internal/dataset"
	"booters/internal/geo"
	"booters/internal/its"
	"booters/internal/scenario"
)

// NewEnv generates the paper's world for the given seed and fits the
// shared global and per-country models once. The env carries the world's
// manifest, so Table 1 is checked against the planted truth.
func NewEnv(seed int64) (*Env, error) {
	panel, man, err := scenario.GeneratePaper(seed, false)
	if err != nil {
		return nil, fmt.Errorf("core: generate panel: %w", err)
	}
	env, err := NewEnvFromPanel(panel)
	if env != nil {
		env.Manifest = man
	}
	return env, err
}

// NewEnvFromPanel fits the shared models on an existing panel: the
// Table 1 global model and one per-country model for each Table 2
// country. The env has no manifest: a loaded panel carries no planted
// truth.
func NewEnvFromPanel(panel *dataset.Panel) (*Env, error) {
	global, err := FitGlobal(panel)
	if err != nil {
		return nil, fmt.Errorf("core: global model: %w", err)
	}
	env := &Env{Panel: panel, Global: global, PerCountry: make(map[string]*its.Model)}
	for _, c := range geo.Table2Countries() {
		m, err := FitCountry(panel, c)
		if err != nil {
			return nil, fmt.Errorf("core: country model %s: %w", c, err)
		}
		env.PerCountry[c] = m
	}
	return env, nil
}

// RunAll executes every experiment against the environment, returning
// results in exhibit order.
func RunAll(env *Env) ([]*Result, error) {
	var out []*Result
	for _, exp := range All() {
		r, err := exp.Run(env)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", exp.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// RunOne executes the experiment with the given ID.
func RunOne(env *Env, id string) (*Result, error) {
	for _, exp := range All() {
		if strings.EqualFold(exp.ID, id) {
			return exp.Run(env)
		}
	}
	return nil, fmt.Errorf("core: no experiment %q", id)
}

// Markdown renders experiment results as the EXPERIMENTS.md body.
func Markdown(seed int64, results []*Result) string {
	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper vs reproduction\n\n")
	fmt.Fprintf(&b, "Generated with seed %d. Every exhibit below was regenerated by\n", seed)
	b.WriteString("`cmd/booterreport` (also exercised by the root benchmark harness).\n")
	b.WriteString("Absolute values are synthetic; the *shape* criteria in each check\n")
	b.WriteString("column are what the reproduction validates.\n\n")

	pass, total := 0, 0
	for _, r := range results {
		for _, c := range r.Checks {
			total++
			if c.Pass {
				pass++
			}
		}
	}
	fmt.Fprintf(&b, "**Checks passing: %d / %d**\n\n", pass, total)

	for _, r := range results {
		fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
		b.WriteString("| check | paper | measured | pass |\n|---|---|---|---|\n")
		for _, c := range r.Checks {
			status := "✅"
			if !c.Pass {
				status = "❌"
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s |\n",
				mdEscape(c.Name), mdEscape(c.Paper), mdEscape(c.Measured), status)
		}
		b.WriteString("\n```\n")
		b.WriteString(strings.TrimRight(r.Rendered, "\n"))
		b.WriteString("\n```\n\n")
	}
	return b.String()
}

func mdEscape(s string) string {
	return strings.NewReplacer("|", "\\|", "\n", " ").Replace(s)
}
