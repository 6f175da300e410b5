package main

import (
	"flag"
	"fmt"
	"log"

	"pricesheriff/internal/obs"
)

// runStats implements `sheriffctl stats`: fetch /metrics.json from a
// deployment's admin UI and pretty-print the snapshot.
func runStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	admin := fs.String("admin", "", "admin UI address (required; sheriffd prints it)")
	raw := fs.Bool("json", false, "print the raw JSON snapshot")
	fs.Parse(args)
	if *admin == "" {
		log.Fatal("need -admin (sheriffd prints the admin web ui address)")
	}

	var snap obs.Snapshot
	getAdminJSON(*admin, "/metrics.json", "metrics", &snap, *raw)
	if *raw {
		return
	}

	fmt.Println("counters:")
	for _, p := range snap.Counters {
		fmt.Printf("  %-64s %d\n", p.Series, p.Value)
	}
	fmt.Println("gauges:")
	for _, p := range snap.Gauges {
		fmt.Printf("  %-64s %d\n", p.Series, p.Value)
	}
	fmt.Println("histograms:")
	for _, h := range snap.Histograms {
		fmt.Printf("  %-64s count=%d sum=%.4fs p50=%.4fs p95=%.4fs p99=%.4fs\n",
			h.Series, h.Count, h.Sum, h.P50, h.P95, h.P99)
	}
}
