package shard

import (
	"context"
	"fmt"
	"testing"

	"pricesheriff/internal/history"
	"pricesheriff/internal/measurement"
	"pricesheriff/internal/store"
	"pricesheriff/internal/transport"
)

// TestRebalanceChaosShardKilledMidMigration kills the durable shard's
// whole process mid-migration — after the copy phase has streamed rows
// to the new (RAM-only) member but before cutover — and asserts that a
// WAL replay brings back every acked row exactly once, including rows
// dual-written inside the window, and that a fresh rebalance on the
// recovered plane completes cleanly.
//
// "SIGKILL" here means: the persister is abandoned without Close (no
// final sync, no detach — exactly the state a killed process leaves on
// disk under FsyncAlways), the servers are torn down, and the router
// and the RAM target shard vanish with the process. Nothing the window
// needs lived in memory: which copy counts follows from the ring.
func TestRebalanceChaosShardKilledMidMigration(t *testing.T) {
	dir := t.TempDir()
	netw := transport.NewInproc()
	ctx := context.Background()

	// Boot a 1-shard plane whose only member is durable.
	db0, err := store.NewPlaneDB(0, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	measurement.RegisterStandardProcs(db0)
	pers, err := history.Open(dir, db0, history.Options{
		WAL: history.WALOptions{Fsync: history.FsyncAlways},
	})
	if err != nil {
		t.Fatal(err)
	}
	lis0, err := netw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv0 := store.NewServer(db0, lis0)
	go srv0.Serve()
	ring := NewRing(42, 32, []Member{{ID: "shard-0", Addr: srv0.Addr()}})
	r, err := NewRouter(netw, ring, Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CreateTableCtx(ctx, reqSpec); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateTableCtx(ctx, respSpec); err != nil {
		t.Fatal(err)
	}

	var acked []ackedRow
	insertPair := func(job, domain string) {
		t.Helper()
		id, err := r.InsertCtx(ctx, "requests", reqRow(job, domain))
		if err != nil {
			t.Fatal(err)
		}
		respID, err := r.InsertCtx(ctx, "responses", store.Row{
			"job_id": job, "request_id": float64(id),
			"url": "https://" + domain + "/p", "domain": domain,
		})
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, ackedRow{"requests", id, job}, ackedRow{"responses", respID, job})
	}
	jobs := map[string]string{}
	for i := 0; i < 30; i++ {
		job, domain := fmt.Sprintf("pre%d", i), fmt.Sprintf("shop%d.example.com", i)
		insertPair(job, domain)
		jobs[job] = domain
	}

	// Open a handoff window to a RAM-only second shard and start moving.
	db1, err := store.NewPlaneDB(1, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	measurement.RegisterStandardProcs(db1)
	lis1, err := netw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv1 := store.NewServer(db1, lis1)
	go srv1.Serve()
	next := ring.Add(Member{ID: "shard-1", Addr: srv1.Addr(), Ordinal: 1})
	if err := r.BeginUpdate(next); err != nil {
		t.Fatal(err)
	}

	// Mid-window traffic: pairs written to both owners, whose copy on the
	// current owner lands in the WAL — under an ID the RAM member minted;
	// the copies on that member only ever exist in RAM.
	for i := 0; i < 10; i++ {
		job, domain := fmt.Sprintf("mid%d", i), fmt.Sprintf("shop%d.example.com", i)
		insertPair(job, domain)
		jobs[job] = domain
	}

	// The copy phase runs to completion — rows now sit on both members —
	// and then the process dies before reaping, cutover, or cleanup.
	rep := &RebalanceReport{}
	if err := r.migrate(ctx, next, rep); err != nil {
		t.Fatal(err)
	}
	if rep.KeysMoved == 0 {
		t.Fatal("migration copied nothing; the crash point is not mid-move")
	}
	// SIGKILL: no pers.Close, no cutover, no sweep. The WAL's file handle
	// is simply abandoned, as a killed process would leave it.
	r.Close()
	srv0.Close()
	srv1.Close()

	// Reboot shard-0 from disk. Replay must restore the full acked
	// corpus: every pre-window pair and every mid-window source copy,
	// original IDs intact so the request_id joins still resolve.
	db0b, err := store.NewPlaneDB(0, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	measurement.RegisterStandardProcs(db0b)
	pers2, err := history.Open(dir, db0b, history.Options{
		WAL: history.WALOptions{Fsync: history.FsyncAlways},
	})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer pers2.Close()
	_ = pers // the dead process's persister is never touched again
	if pers2.ReplayedRecords == 0 {
		t.Fatal("recovery replayed no WAL records")
	}

	p := &testPlane{
		t:        t,
		netw:     netw,
		dbs:      map[string]*store.DB{},
		srvs:     map[string]*store.Server{},
		ordinals: 2, // 0 and 1 are spent: the dead member minted IDs that survive on shard-0
	}
	t.Cleanup(p.close)
	lis0b, err := netw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv0b := store.NewServer(db0b, lis0b)
	go srv0b.Serve()
	p.dbs["shard-0"], p.srvs["shard-0"] = db0b, srv0b

	// The ring the coordinator would hand back is the committed epoch:
	// the crashed window never cut over, so shard-0 owns everything.
	ring2 := NewRing(42, 32, []Member{{ID: "shard-0", Addr: srv0b.Addr()}})
	checkExactlyOnce(t, p, ring2, jobs, true)

	// Retry the interrupted ring change on the recovered plane. The
	// hygiene sweep finds nothing on shard-0 (its strays died with the
	// RAM member) and the move completes exactly-once as usual.
	r2 := p.router(ring2)
	next2 := ring2.Add(p.addShard("shard-1"))
	rep2, err := r2.Rebalance(ctx, next2)
	if err != nil {
		t.Fatalf("post-recovery rebalance: %v", err)
	}
	if rep2.KeysMoved == 0 {
		t.Fatal("post-recovery rebalance moved nothing")
	}
	checkExactlyOnce(t, p, next2, jobs, true)
	checkAcked(t, "after recovery and regrow", r2, p, acked)
	if n := p.dbs["shard-1"].Counts()["requests"]; n == 0 {
		t.Fatal("recovered plane's grow put nothing on the new shard")
	}
	// The recovered engine resumes above every ID it has seen, including
	// the ones the dead member minted: a fresh row collides with nothing.
	id, err := r2.InsertCtx(ctx, "requests", reqRow("post", "shop-post.example.com"))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range acked {
		if a.table == "requests" && a.id == id {
			t.Fatalf("ID %d minted again after recovery (first acked for job %s)", id, a.job)
		}
	}
}
