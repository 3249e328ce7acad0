// Command booterreport runs every experiment (all tables and figures) and
// writes the EXPERIMENTS.md paper-vs-measured report.
//
// Usage:
//
//	booterreport [-seed N] [-o FILE] [-print]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"booters/internal/cli"
	"booters/internal/core"
)

const usageText = `booterreport runs every experiment in the reproduction — all tables,
figures and robustness checks — and writes the EXPERIMENTS.md report
comparing each measured exhibit against the paper's published values.

Usage:

  booterreport [-seed N] [-o FILE] [-print]

Flags:

`

func main() {
	cli.Init("booterreport", usageText)
	seed := cli.Seed(flag.CommandLine)
	out := flag.String("o", "EXPERIMENTS.md", "output file (empty for stdout only)")
	print := flag.Bool("print", false, "also print rendered exhibits to stdout")
	flag.Parse()

	env, err := core.NewEnv(*seed)
	if err != nil {
		log.Fatal(err)
	}
	results, err := core.RunAll(env)
	if err != nil {
		log.Fatal(err)
	}

	pass, total := 0, 0
	for _, r := range results {
		for _, c := range r.Checks {
			total++
			if c.Pass {
				pass++
			}
		}
		if *print {
			fmt.Println(r.Rendered)
		}
	}
	md := core.Markdown(*seed, results)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	} else {
		fmt.Print(md)
	}
	fmt.Printf("checks passing: %d/%d\n", pass, total)
	if pass < total {
		os.Exit(1)
	}
}
