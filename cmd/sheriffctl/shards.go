package main

import (
	"fmt"
	"sort"

	"pricesheriff/internal/shard"
)

// runShards implements `sheriffctl shards`: fetch /shards.json from a
// deployment's admin UI and print the data plane's ring.
func runShards(args []string) {
	c := docFlags("shards")
	c.parseNone(args, "sheriffctl shards -admin HOST:PORT [-json]")
	// A deployment without a sharded data plane answers 404 and says so.
	var st shard.Status
	if !c.getAdminJSON("/shards.json", "shards", &st) {
		return
	}

	state := "steady"
	if st.Rebalancing {
		state = "REBALANCING"
	}
	fmt.Printf("ring v%d — %d shards — %s\n", st.RingVersion, len(st.Shards), state)
	if lc := st.LastChange; lc != nil {
		fmt.Printf("last change v%d→v%d: %d keys (%d bytes) moved, %d strays reaped before, %d sources freed after\n",
			lc.FromVersion, lc.ToVersion, lc.KeysMoved, lc.BytesMoved, lc.Reaped, lc.SourcesFreed)
	}
	for _, m := range st.Shards {
		fmt.Printf("  %-10s %-22s share %5.1f%%  ops %-8d", m.ID, m.Addr, m.Share*100, m.Ops)
		names := make([]string, 0, len(m.Keys))
		for n := range m.Keys {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf(" %s=%d", n, m.Keys[n])
		}
		fmt.Println()
	}
}
