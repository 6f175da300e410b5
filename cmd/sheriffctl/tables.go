package main

import (
	"fmt"

	"pricesheriff/internal/adminui"
)

// runTables implements `sheriffctl tables`: fetch /tables.json from a
// deployment's admin UI and print each table's storage engine, row
// count, and disk footprint.
func runTables(args []string) {
	c := docFlags("tables")
	c.parseNone(args, "sheriffctl tables -admin HOST:PORT [-json]")
	var doc adminui.TablesPayload
	if !c.getAdminJSON("/tables.json", "tables", &doc) {
		return
	}

	fmt.Printf("page cache: %d hits / %d misses (%.1f%% hit ratio)\n",
		doc.CacheHits, doc.CacheMisses, doc.CacheHitRatio*100)
	fmt.Printf("%-10s %-18s %-6s %10s %12s %12s %5s\n",
		"SHARD", "TABLE", "ENGINE", "ROWS", "DISK B", "MEMTBL B", "RUNS")
	for _, t := range doc.Tables {
		fmt.Printf("%-10s %-18s %-6s %10d %12d %12d %5d\n",
			t.Shard, t.Name, t.Engine, t.Rows, t.DiskBytes, t.MemBytes, t.Runs)
	}
}
