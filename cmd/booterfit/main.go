// Command booterfit fits the paper's global Table 1 model on the generated
// panel and prints the coefficient table plus the Figure 2 model-vs-observed
// charts.
//
// Usage:
//
//	booterfit [-seed N] [-family nb|poisson]
package main

import (
	"flag"
	"fmt"
	"log"

	"booters/internal/cli"
	"booters/internal/core"
	"booters/internal/glm"
	"booters/internal/its"
)

const usageText = `booterfit fits the paper's global Table 1 model — a negative binomial
interrupted time series over the weekly attack panel — on the generated
dataset, and prints the coefficient table plus the Figure 2
model-vs-observed charts. -family poisson refits the same windows under
Poisson as the paper's overdispersion ablation.

Usage:

  booterfit [-seed N] [-family nb|poisson]

Flags:

`

func main() {
	cli.Init("booterfit", usageText)
	seed := cli.Seed(flag.CommandLine)
	familyFlag := flag.String("family", "nb", "model family: nb or poisson")
	flag.Parse()
	family, err := parseFamily(*familyFlag)
	cli.Check(err)

	env, err := core.NewEnv(*seed)
	if err != nil {
		log.Fatal(err)
	}

	if family == glm.Poisson {
		// Ablation: refit the chosen windows under Poisson.
		from, to := core.ModelWindow()
		spec := env.Global.Spec
		spec.Family = family
		m, err := its.Fit(env.Panel.Global.Slice(from, to), spec)
		if err != nil {
			log.Fatal(err)
		}
		env.Global = m
	}

	for _, id := range []string{"Table 1", "Figure 2"} {
		res, err := core.RunOne(env, id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Rendered)
		for _, c := range res.Checks {
			status := "PASS"
			if !c.Pass {
				status = "FAIL"
			}
			fmt.Printf("  [%s] %s: paper %q, measured %q\n", status, c.Name, c.Paper, c.Measured)
		}
		fmt.Println()
	}
}

// parseFamily resolves -family: nb is the paper's NB2 model, poisson the
// overdispersion ablation. Anything else is an error rather than a
// silent NB2 fit.
func parseFamily(name string) (glm.Family, error) {
	switch name {
	case "nb":
		return glm.NegativeBinomial, nil
	case "poisson":
		return glm.Poisson, nil
	}
	return 0, fmt.Errorf("-family %q: want nb or poisson", name)
}
