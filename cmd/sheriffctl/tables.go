package main

import (
	"flag"
	"fmt"
	"log"

	"pricesheriff/internal/adminui"
)

// runTables implements `sheriffctl tables`: fetch /tables.json from a
// deployment's admin UI and print each table's storage engine, row
// count, and disk footprint.
func runTables(args []string) {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	admin := fs.String("admin", "", "admin UI address (required; sheriffd prints it)")
	raw := fs.Bool("json", false, "print the raw JSON status")
	fs.Parse(args)
	if *admin == "" {
		log.Fatal("need -admin (sheriffd prints the admin web ui address)")
	}

	var doc adminui.TablesPayload
	getAdminJSON(*admin, "/tables.json", "tables", &doc, *raw)
	if *raw {
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
