package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pricesheriff/internal/history"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/store"
)

// newShardedSystem boots a deployment whose data plane starts at n
// shards.
func newShardedSystem(t *testing.T, n int) *System {
	t.Helper()
	mall := shop.NewMall(shop.MallConfig{Seed: 9, NumDomains: 40, NumLocationPD: 12, NumAlexa: 5, IncludePDIPD: true})
	sys, err := NewSystem(Config{
		Mall:               mall,
		MeasurementServers: 2,
		IPCCountries:       []string{"ES", "ES", "US", "GB", "DE", "JP"},
		PPCTimeout:         5 * time.Second,
		Seed:               9,
		StoreShards:        n,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// corpusCounts reads the sharded corpus through the system router.
func corpusCounts(t *testing.T, sys *System) (requests, responses int) {
	t.Helper()
	ctx := context.Background()
	reqs, err := sys.DB().SelectCtx(ctx, store.Query{Table: "requests"})
	if err != nil {
		t.Fatal(err)
	}
	resps, err := sys.DB().SelectCtx(ctx, store.Query{Table: "responses"})
	if err != nil {
		t.Fatal(err)
	}
	return len(reqs), len(resps)
}

func TestSystemShardedPriceChecks(t *testing.T) {
	sys := newShardedSystem(t, 3)
	if got := sys.StoreShards(); got != 3 {
		t.Fatalf("StoreShards = %d, want 3", got)
	}
	users := addUsers(t, sys, "ES", 2)

	// Run checks against several domains so the key space spreads.
	domains := sys.Mall.Domains()[:6]
	for _, d := range domains {
		if _, err := sys.PriceCheckContext(context.Background(), users[0].ID, productURL(t, sys, d, 0)); err != nil {
			t.Fatalf("check %s: %v", d, err)
		}
	}
	nReq, nResp := corpusCounts(t, sys)
	if nReq != len(domains) {
		t.Fatalf("scatter read found %d requests, want %d", nReq, len(domains))
	}
	if nResp == 0 {
		t.Fatal("no responses recorded")
	}

	// The corpus must actually be distributed: with 6 domains over 3
	// shards at least two shards should hold rows.
	st, err := sys.ShardStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 3 || st.RingVersion != 1 {
		t.Fatalf("status = v%d/%d shards, want v1/3", st.RingVersion, len(st.Shards))
	}
	nonEmpty := 0
	var opsSum int64
	for _, m := range st.Shards {
		if m.Keys["requests"] > 0 {
			nonEmpty++
		}
		opsSum += m.Ops
	}
	if nonEmpty < 2 {
		t.Fatalf("requests landed on %d shards, want ≥2 (status %+v)", nonEmpty, st.Shards)
	}
	if opsSum == 0 {
		t.Fatal("status shows zero routed ops after six checks — fleet merge missing")
	}

	// The checks wrote through the measurement servers' own routers, so
	// the fleet-wide signal must exceed what the system router alone saw.
	if own, fleet := sys.ShardRouter().OpsTotal(), sys.FleetOps(); fleet <= own {
		t.Fatalf("fleet ops = %d vs system router %d — measurement traffic invisible to the scaler", fleet, own)
	}

	// The coordinator carries the boot ring.
	ver, raw := sys.Coord.Ring()
	if ver != 1 || len(raw) == 0 {
		t.Fatalf("coordinator ring = v%d (%d bytes), want v1", ver, len(raw))
	}

	// A keyed proc still answers correctly over the fan-out.
	var counts map[string]int
	if err := sys.DB().CallProcCtx(context.Background(), "responses_by_domain", nil, &counts); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != nResp {
		t.Fatalf("responses_by_domain sums to %d, scatter read saw %d", total, nResp)
	}
}

func TestAddRemoveStoreShardLive(t *testing.T) {
	sys := newShardedSystem(t, 1)
	users := addUsers(t, sys, "ES", 2)
	domains := sys.Mall.Domains()[:5]
	for _, d := range domains {
		if _, err := sys.PriceCheckContext(context.Background(), users[0].ID, productURL(t, sys, d, 0)); err != nil {
			t.Fatal(err)
		}
	}
	nReq, nResp := corpusCounts(t, sys)

	rep, err := sys.AddStoreShard()
	if err != nil {
		t.Fatal(err)
	}
	if sys.StoreShards() != 2 {
		t.Fatalf("StoreShards = %d after grow", sys.StoreShards())
	}
	if rep.KeysMoved == 0 {
		t.Fatal("grow moved no keys")
	}
	if gotReq, gotResp := corpusCounts(t, sys); gotReq != nReq || gotResp != nResp {
		t.Fatalf("corpus after grow = %d/%d, want %d/%d", gotReq, gotResp, nReq, nResp)
	}
	// The new epoch reached the coordinator's control plane.
	if ver, _ := sys.Coord.Ring(); ver != 2 {
		t.Fatalf("coordinator ring v%d after grow, want v2", ver)
	}

	// Checks keep working on the wider plane — including through the
	// measurement servers' own routers.
	for _, d := range domains {
		if _, err := sys.PriceCheckContext(context.Background(), users[1].ID, productURL(t, sys, d, 1)); err != nil {
			t.Fatal(err)
		}
	}
	nReq2, nResp2 := corpusCounts(t, sys)
	if nReq2 != nReq+len(domains) {
		t.Fatalf("requests after grow-era checks = %d, want %d", nReq2, nReq+len(domains))
	}

	rep, err = sys.RemoveStoreShard()
	if err != nil {
		t.Fatal(err)
	}
	if sys.StoreShards() != 1 {
		t.Fatalf("StoreShards = %d after shrink", sys.StoreShards())
	}
	if gotReq, gotResp := corpusCounts(t, sys); gotReq != nReq2 || gotResp != nResp2 {
		t.Fatalf("corpus after shrink = %d/%d, want %d/%d", gotReq, gotResp, nReq2, nResp2)
	}
	if ver, _ := sys.Coord.Ring(); ver != 3 {
		t.Fatalf("coordinator ring v%d after shrink, want v3", ver)
	}
	if _, err := sys.RemoveStoreShard(); err == nil {
		t.Fatal("removing the last shard must fail")
	}
}

func TestShardScalerGrowsAndShrinks(t *testing.T) {
	sys := newShardedSystem(t, 1)
	sc := NewShardScaler(sys)
	sc.GrowOpsPerShard = 50
	sc.ShrinkOpsPerShard = 10
	sc.Cooldown = 0

	// Prime the delta baseline, then pump routed ops past the threshold.
	if act, err := sc.Tick(); err != nil || act != "" {
		t.Fatalf("idle tick = %q, %v", act, err)
	}
	ctx := context.Background()
	for i := 0; i < 120; i++ {
		row := store.Row{"job_id": fmt.Sprintf("j-%d", i), "url": fmt.Sprintf("http://shop-%02d.com/p", i%17), "country": "ES", "domain": fmt.Sprintf("shop-%02d.com", i%17)}
		if _, err := sys.DB().InsertCtx(ctx, "requests", row); err != nil {
			t.Fatal(err)
		}
	}
	act, err := sc.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if act != "grow" || sys.StoreShards() != 2 {
		t.Fatalf("tick = %q, shards = %d; want grow to 2", act, sys.StoreShards())
	}

	// No traffic since the grow: the per-shard rate collapses under the
	// shrink threshold and the extra shard retires.
	act, err = sc.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if act != "shrink" || sys.StoreShards() != 1 {
		t.Fatalf("tick = %q, shards = %d; want shrink to 1", act, sys.StoreShards())
	}
	grown, shrunk := sc.Scaled()
	if grown != 1 || shrunk != 1 {
		t.Fatalf("scaled = %d/%d, want 1/1", grown, shrunk)
	}

	// The corpus survived both ring changes intact.
	nReq, _ := corpusCounts(t, sys)
	if nReq != 120 {
		t.Fatalf("requests = %d after scale cycle, want 120", nReq)
	}
}

// TestShardOrdinalsSurviveRestart: an engine's ordinal is spent for good.
// A durable one-shard deployment grows twice, shrinks back onto shard-0
// (which keeps the rows the retired engines minted), restarts, and grows
// again: the second incarnation's engine may not draw an ordinal the
// first one used, every row keeps the ID it was acked under, and new rows
// collide with none.
func TestShardOrdinalsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	boot := func() *System {
		t.Helper()
		mall := shop.NewMall(shop.MallConfig{Seed: 9, NumDomains: 40, NumLocationPD: 12, NumAlexa: 5})
		sys, err := NewSystem(Config{
			Mall:               mall,
			MeasurementServers: 1,
			IPCCountries:       []string{"US", "DE", "JP"},
			PPCTimeout:         5 * time.Second,
			Seed:               9,
			DataDir:            dir,
			Fsync:              history.FsyncOff, // Close syncs; nothing here kills -9
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	ctx := context.Background()
	spent := map[int]string{} // ordinal → the engine that drew it
	draw := func(sys *System, incarnation int) {
		t.Helper()
		for _, m := range sys.ShardRing().Members {
			who := fmt.Sprintf("%s of incarnation %d", m.ID, incarnation)
			if m.ID == "shard-0" {
				if m.Ordinal != 0 {
					t.Fatalf("shard-0 has ordinal %d", m.Ordinal)
				}
				continue
			}
			if prev, taken := spent[m.Ordinal]; taken && prev != who {
				t.Fatalf("ordinal %d reissued: %s, then %s", m.Ordinal, prev, who)
			}
			spent[m.Ordinal] = who
		}
	}
	acked := map[int64]string{} // request ID → job
	insert := func(sys *System, tag string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			job := fmt.Sprintf("%s-%d", tag, i)
			domain := fmt.Sprintf("shop-%02d.com", i%23)
			id, err := sys.DB().InsertCtx(ctx, "requests", store.Row{"job_id": job, "url": "http://" + domain + "/p", "domain": domain})
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := acked[id]; dup {
				t.Fatalf("request ID %d acked twice: job %s, then %s", id, prev, job)
			}
			acked[id] = job
		}
	}
	verify := func(sys *System, when string) {
		t.Helper()
		rows, err := sys.DB().SelectCtx(ctx, store.Query{Table: "requests"})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(acked) {
			t.Fatalf("%s: %d requests, want %d", when, len(rows), len(acked))
		}
		for _, row := range rows {
			id := int64(row[store.ID].(float64))
			if acked[id] != row["job_id"] {
				t.Fatalf("%s: request %d is job %v, acked as %q", when, id, row["job_id"], acked[id])
			}
		}
	}

	first := boot()
	for _, tag := range []string{"a", "b"} {
		if _, err := first.AddStoreShard(); err != nil {
			t.Fatal(err)
		}
		draw(first, 1)
		insert(first, tag, 60)
	}
	for first.StoreShards() > 1 {
		if _, err := first.RemoveStoreShard(); err != nil {
			t.Fatal(err)
		}
	}
	verify(first, "before restart")
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second := boot()
	defer second.Close()
	verify(second, "after restart")
	if _, err := second.AddStoreShard(); err != nil {
		t.Fatal(err)
	}
	draw(second, 2)
	insert(second, "c", 90)
	verify(second, "after regrow")
	if len(spent) != 3 {
		t.Fatalf("drew %d distinct ordinals for the 2+1 engines of two incarnations, want 3: %v", len(spent), spent)
	}
}
