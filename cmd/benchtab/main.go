// Command benchtab regenerates the paper's tables and figures as text —
// the experiment index of DESIGN.md made runnable. By default it runs the
// quick-scale version of every experiment; -exp selects one, -full runs
// the paper-scale sweeps.
//
// Usage:
//
//	benchtab [-exp table5] [-full] [-seed 2017]
//	benchtab -list
//	benchtab -crypto [-crypto-json BENCH_crypto.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"pricesheriff/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id to run (default: all)")
		full       = flag.Bool("full", false, "paper-scale sweeps (slow)")
		seed       = flag.Int64("seed", 2017, "world/workload seed")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		crypto     = flag.Bool("crypto", false, "benchmark the crypto substrate (fast vs naive) and exit")
		cryptoJSON = flag.String("crypto-json", "BENCH_crypto.json", "machine-readable output for -crypto")
	)
	flag.Parse()
	log.SetFlags(0)

	if *crypto {
		runner := experiments.NewRunner(experiments.Config{Full: *full, Seed: *seed})
		fmt.Println("=== Crypto substrate: fast paths vs scalar ablation ===")
		if err := experiments.CryptoBench(runner, os.Stdout, *cryptoJSON); err != nil {
			log.Fatalf("crypto: %v", err)
		}
		return
	}

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	runner := experiments.NewRunner(experiments.Config{Full: *full, Seed: *seed})
	ran := 0
	for _, e := range all {
		if *exp != "" && e.ID != *exp {
			continue
		}
		fmt.Printf("=== %s ===\n", e.Title)
		start := time.Now()
		if err := e.Run(runner, os.Stdout); err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Printf("(%s)\n\n", time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		log.Fatalf("unknown experiment %q (use -list)", *exp)
	}
}
