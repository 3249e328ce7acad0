package main

import (
	"testing"

	"booters/internal/glm"
)

func TestParseFamily(t *testing.T) {
	for name, want := range map[string]glm.Family{"nb": glm.NegativeBinomial, "poisson": glm.Poisson} {
		if got, err := parseFamily(name); err != nil || got != want {
			t.Errorf("parseFamily(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// A typo must fail the run, not silently fit the NB2 model.
	for _, bad := range []string{"poison", "", "NB", "negbin"} {
		if _, err := parseFamily(bad); err == nil {
			t.Errorf("parseFamily(%q) accepted an unknown family", bad)
		}
	}
}
