// Package cli holds the command-line setup the booters commands share:
// the flag groups two or more of them declare (the workload:
// -scenario with -seed/-weeks/-attacks, -record/-compress,
// -replay/-replay-workers, -shards, -pprof/-progress,
// -log/-trace-sample/-trace-slow and the wire session endpoint), the
// usage boilerplate, one explicit-flag check that rejects flags the
// chosen mode would silently ignore, and the setup steps built on the
// groups: workload generation (every generated stream is a scenario
// run), spool recording, the panel span taken from a spool's index, and
// the scenario verification report.
//
// Every group defines its flags on a caller-supplied flag.FlagSet with the
// caller's defaults where commands differ, so each flag name is declared
// in exactly one place. What only one command does stays in that command.
package cli

import (
	"flag"
	"fmt"
	"log"
	"strings"
)

// Init sets up the standard log prefix ("name: ") and the -h output: the
// command's usage text followed by its flag list.
func Init(name, usage string) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), usage)
		flag.PrintDefaults()
	}
}

// Check exits the command with the first non-nil error, if any.
func Check(errs ...error) {
	for _, err := range errs {
		if err != nil {
			log.Fatal(err)
		}
	}
}

// Only rejects flags set on the command line for a mode that is not
// active: when applies is false and any of names was given explicitly —
// even at its default value — it returns "-a/-b only apply to MODE".
// Running a workload other than the one asked for is worse than an
// error.
func Only(fs *flag.FlagSet, applies bool, mode string, names ...string) error {
	if applies {
		return nil
	}
	set := explicit(fs, names)
	if len(set) == 0 {
		return nil
	}
	verb := "applies"
	if len(set) > 1 {
		verb = "apply"
	}
	return fmt.Errorf("%s only %s to %s", dashed(set), verb, mode)
}

// Exclusive rejects giving more than one of names on the command line.
func Exclusive(fs *flag.FlagSet, names ...string) error {
	if set := explicit(fs, names); len(set) > 1 {
		return fmt.Errorf("%s are mutually exclusive", dashed(set))
	}
	return nil
}

// explicit returns the subset of names set on the command line, in the
// order given.
func explicit(fs *flag.FlagSet, names []string) []string {
	seen := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { seen[f.Name] = true })
	var set []string
	for _, n := range names {
		if seen[n] {
			set = append(set, n)
		}
	}
	return set
}

// dashed renders flag names as "-a/-b".
func dashed(names []string) string {
	return "-" + strings.Join(names, "/-")
}
