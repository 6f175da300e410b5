// Command bench is the repository's whole-check benchmark: it boots a real
// core.System, drives whole price checks and result/history reads through
// its front door from this one process, validates every result, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer ones) for one
// workload and one seed. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var opts runOptions
	var trace, selfcheck int
	flag.StringVar(&opts.Workload, "workload", "", "workload name from workloads.json")
	flag.Int64Var(&opts.Seed, "seed", 1, "seed of arrivals, users and URLs (the system's own seed is fixed)")
	flag.IntVar(&opts.Seconds, "seconds", 24, "length of the offered schedule; sizes the fixed operation count")
	flag.IntVar(&trace, "trace", 0, "1 = also run the traced per-layer pass and report its metrics")
	flag.BoolVar(&opts.Quick, "quick", false, "small smoke run: one cold boot, ~200 checks, numbers not comparable")
	flag.IntVar(&selfcheck, "selfcheck", 0, "N > 0: run every workload N times twice over and hold the two sets against the bounds")
	flag.Parse()
	opts.Trace = trace != 0

	g, err := loadGrid()
	if err != nil {
		fatal(err)
	}
	if flag.NArg() > 0 || opts.Seconds < 1 || (selfcheck > 0) == (opts.Workload != "") {
		fatal(fmt.Errorf("usage: bench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-quick] | bench -selfcheck N [-seconds S]"))
	}
	if selfcheck > 0 {
		if err := selfCheck(g, selfcheck, opts.Seconds, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	rep, err := runWorkload(g, opts, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// fatal exits non-zero without printing a result line.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
