//go:build !race

package core

import (
	"context"
	"runtime"
	"testing"
)

// parentAllocsPerNeverSeenCheck is what one whole check of a key nobody
// asked before allocated at the commit before the verdict tiers existed,
// measured by this very test body (newSystem's 6 IPCs + 3 PPCs, 40 warm-up
// checks, then 200 sequential checks of 200 further products; five runs
// read 2,497.9–2,498.5, and 2,501.9–2,502.5 with the tiers in).
const parentAllocsPerNeverSeenCheck = 2498

// TestNeverSeenKeyCostsWhatItDid is the bypass evidence for the verdict
// tiers: a check whose key is in nobody's index — every check of a unique
// product — pays for building the key, one index entry and the counters,
// and nothing else. No BENCHMARK.json workload has unique keys, so this pin
// is where the no-change prediction is held: within 2% of the parent.
func TestNeverSeenKeyCostsWhatItDid(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 4)
	urls := distinctURLs(t, sys, 240)
	ctx := context.Background()
	check := func(i int) {
		res, err := sys.PriceCheckContext(ctx, users[i%len(users)].ID, urls[i])
		if err != nil || len(res.Rows) != 1+6+3 {
			t.Fatalf("check %d: %v, %v", i, res, err)
		}
	}
	for i := 0; i < 40; i++ {
		check(i)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 40; i < 240; i++ {
		check(i)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / 200
	t.Logf("%.1f allocations per never-seen check (parent %d)", got, parentAllocsPerNeverSeenCheck)
	if limit := parentAllocsPerNeverSeenCheck * 1.02; got > limit {
		t.Errorf("a check of a never-seen key allocates %.1f objects, parent %d: more than 2%% above", got, parentAllocsPerNeverSeenCheck)
	}
}
