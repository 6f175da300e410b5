//go:build !race

package core

import (
	"context"
	"runtime"
	"testing"

	"pricesheriff/internal/coordinator"
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

// parentAllocsPerCachedCheck is what one whole check answered from the
// cached tier allocated before core and sheriffctl shared one protocol
// function, measured by this very test body (newSystem's 6 IPCs + 3 PPCs,
// 20 products checked once each, 40 warm-up attaches, then 200
// sequential attaches by the other users; five runs read 229.2–229.3).
const parentAllocsPerCachedCheck = 229.3

// TestCachedCheckCostsWhatItDid pins the attached path: a check whose
// question was answered moments ago runs browse, Tags Path, schedule and
// one ms.attach, and must cost what it did within 1%.
func TestCachedCheckCostsWhatItDid(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 4)
	urls := distinctURLs(t, sys, 20)
	ctx := context.Background()
	check := func(user *User, i int, wantSource string) {
		res, err := sys.PriceCheckContext(ctx, user.ID, urls[i%len(urls)])
		if err != nil || len(res.Rows) != 1+6+3 || res.Source != wantSource {
			t.Fatalf("check %d: %+v, %v (want source %s)", i, res, err, wantSource)
		}
	}
	for i := range urls {
		check(users[0], i, coordinator.SourceFanout)
	}
	for i := 1; i <= 40; i++ {
		check(users[1+i%3], i, coordinator.SourceCached)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 41; i <= 240; i++ {
		check(users[1+i%3], i, coordinator.SourceCached)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / 200
	t.Logf("%.1f allocations per cached check (parent %.1f)", got, parentAllocsPerCachedCheck)
	if limit := parentAllocsPerCachedCheck * 1.01; got > limit {
		t.Errorf("a cached check allocates %.1f objects, parent %.1f: more than 1%% above", got, parentAllocsPerCachedCheck)
	}
}
