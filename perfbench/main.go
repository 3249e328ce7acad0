// Command perfbench is the repository benchmark: it drives the booters
// pipeline through its public packages on three seeded workloads and
// prints one JSON result line.
//
// Two sub-commands share the binary so generated input never lives in
// the measured process:
//
//	perfbench gen -workload W -seed N -data DIR
//	perfbench run -workload W -seed N -data DIR -seconds S -trace 0|1
//
// gen writes the workload's spool, manifest and plan under DIR (a no-op
// when they are already there); run measures against them. run.sh chains
// the two and is what BENCHMARK.json names. See README.md for the
// workloads, the metrics and what each one should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads maps each workload name to its generator and its runner.
var workloads = map[string]struct {
	gen func(dir string, seed int64) error
	run func(e *env) error
}{
	"replay": {genReplay, runReplay},
	"fleet":  {genFleet, runFleet},
	"query":  {genQuery, runQuery},
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench gen|run -workload W -seed N -data DIR [-seconds S] [-trace 0|1]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
	workload := fs.String("workload", "", "workload name: replay, fleet or query")
	seed := fs.Int64("seed", 1, "input seed")
	data := fs.String("data", ".bench_data", "generated-input root")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	fs.Parse(os.Args[2:])
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", *workload)
		os.Exit(2)
	}
	dir := filepath.Join(*data, fmt.Sprintf("%s-%d", *workload, *seed))

	switch os.Args[1] {
	case "gen":
		if err := generate(dir, *seed, w.gen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: gen:", err)
			os.Exit(1)
		}
	case "run":
		runtime.GOMAXPROCS(2)
		e, err := newEnv(dir, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: run:", err)
			os.Exit(1)
		}
		if e.traced {
			err = runTraced(e, *workload, w.run)
		} else {
			err = w.run(e)
		}
		e.mon.close()
		if err != nil {
			e.fail("%v", err)
		}
		if !e.print(os.Stdout) {
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown sub-command %q\n", os.Args[1])
		os.Exit(2)
	}
}

// generate runs gen into dir unless a previous run finished it; the
// READY marker is written last, so an interrupted generation is redone.
func generate(dir string, seed int64, gen func(string, int64) error) error {
	ready := filepath.Join(dir, "READY")
	if _, err := os.Stat(ready); err == nil {
		return nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := gen(dir, seed); err != nil {
		return err
	}
	return os.WriteFile(ready, nil, 0o644)
}
