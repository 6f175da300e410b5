package main

import (
	"fmt"

	"pricesheriff/internal/obs"
)

// runStats implements `sheriffctl stats`: fetch /metrics.json from a
// deployment's admin UI and pretty-print the snapshot.
func runStats(args []string) {
	c := docFlags("stats")
	c.parseNone(args, "sheriffctl stats -admin HOST:PORT [-json]")
	var snap obs.Snapshot
	if !c.getAdminJSON("/metrics.json", "metrics", &snap) {
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
