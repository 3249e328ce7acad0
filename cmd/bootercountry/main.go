// Command bootercountry runs the per-country analyses: Table 2 (per-country
// intervention effects), Table 3 (country shares), Figure 3 (country
// stack), Figure 4 (country correlations) and Figure 5 (the NCA campaign
// comparison).
//
// Usage:
//
//	bootercountry [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"booters/internal/cli"
	"booters/internal/core"
	"booters/internal/report"
)

const usageText = `bootercountry runs the paper's per-country analyses on the generated
dataset: Table 2 (per-country intervention effects), Table 3 (country
shares of attacks), Figure 3 (the country stack), Figure 4 (cross-country
correlations) and Figure 5 (the UK-vs-US NCA advert-campaign comparison).

Usage:

  bootercountry [-seed N] [-detail]

Flags:

`

func main() {
	cli.Init("bootercountry", usageText)
	seed := cli.Seed(flag.CommandLine)
	detail := flag.Bool("detail", false, "also print per-country model coefficient tables (the paper omits these for space)")
	flag.Parse()

	env, err := core.NewEnv(*seed)
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range []string{"Table 2", "Table 3", "Figure 3", "Figure 4", "Figure 5"} {
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

	if !*detail {
		return
	}
	// "For reasons of space, we do not present the details of the
	// individual per-country model parameters" — this reproduction can.
	countries := make([]string, 0, len(env.PerCountry))
	for c := range env.PerCountry {
		countries = append(countries, c)
	}
	sort.Strings(countries)
	for _, c := range countries {
		m := env.PerCountry[c]
		tbl := &report.Table{
			Title:  fmt.Sprintf("Per-country model: %s (alpha=%.4f, loglik=%.1f)", c, m.Fit.Alpha, m.Fit.LogLik),
			Header: []string{"term", "coef", "std.err", "z", "P>|z|"},
		}
		for _, coef := range m.Fit.Coefficients {
			tbl.AddRow(coef.Name,
				fmt.Sprintf("%+.3f", coef.Estimate),
				fmt.Sprintf("%.3f", coef.SE),
				fmt.Sprintf("%+.2f", coef.Z),
				report.FormatP(coef.P))
		}
		fmt.Println(tbl.String())
	}
}
