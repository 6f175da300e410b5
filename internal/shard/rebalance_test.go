package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pricesheriff/internal/store"
)

// checkExactlyOnce asserts that every job in want exists exactly once
// across the plane, on the shard the ring assigns it, and that its
// response (if any) sits on the same shard referencing the request row.
func checkExactlyOnce(t *testing.T, p *testPlane, ring *Ring, jobs map[string]string, withResponses bool) {
	t.Helper()
	seen := map[string]int{}
	for memberID, db := range p.dbs {
		if _, onRing := ring.Member(memberID); !onRing {
			continue
		}
		reqs, err := db.Select(store.Query{Table: "requests"})
		if err != nil {
			t.Fatal(err)
		}
		respByRef := map[int64]store.Row{}
		if withResponses {
			resps, err := db.Select(store.Query{Table: "responses"})
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range resps {
				if ref, ok := numericID(row["request_id"]); ok {
					respByRef[ref] = row
				}
			}
		}
		for _, row := range reqs {
			job, _ := row["job_id"].(string)
			domain, _ := jobs[job]
			if domain == "" {
				t.Fatalf("unknown job %q on %s", job, memberID)
			}
			seen[job]++
			owner := ring.Owner(KeyForRow("requests", row)).ID
			if owner != memberID {
				t.Fatalf("job %q sits on %s but ring owner is %s", job, memberID, owner)
			}
			if withResponses {
				id, _ := numericID(row[store.ID])
				resp, ok := respByRef[id]
				if !ok {
					t.Fatalf("job %q on %s has no colocated response referencing request %d", job, memberID, id)
				}
				if resp["job_id"] != job {
					t.Fatalf("join broken: request %q referenced by response %q", job, resp["job_id"])
				}
			}
		}
	}
	for job := range jobs {
		if seen[job] != 1 {
			t.Fatalf("job %q present %d times, want exactly once", job, seen[job])
		}
	}
}

func TestRebalanceGrowPreservesEveryRow(t *testing.T) {
	p, ms := newTestPlane(t, "shard-0")
	ring := NewRing(42, 32, ms)
	r := p.router(ring)
	ctx := context.Background()

	jobs := map[string]string{}
	for i := 0; i < 60; i++ {
		job, domain := fmt.Sprintf("j%d", i), fmt.Sprintf("shop%d.example.com", i)
		reqID, err := r.InsertCtx(ctx, "requests", reqRow(job, domain))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.InsertCtx(ctx, "responses", store.Row{
			"job_id": job, "request_id": float64(reqID),
			"url": "https://" + domain + "/p", "domain": domain,
		}); err != nil {
			t.Fatal(err)
		}
		jobs[job] = domain
	}

	next := ring.Add(p.addShard("shard-1"))
	rep, err := r.Rebalance(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KeysMoved == 0 {
		t.Fatal("grow to 2 shards moved nothing")
	}
	if rep.BytesMoved == 0 {
		t.Fatal("rebalance reported zero bytes moved")
	}
	if got := r.Ring().Version; got != next.Version {
		t.Fatalf("router still on ring v%d after commit", got)
	}
	checkExactlyOnce(t, p, next, jobs, true)
	if n := p.dbs["shard-1"].Counts()["requests"]; n == 0 {
		t.Fatal("new shard received no rows")
	}
}

func TestRebalanceShrinkDrainsRemovedMember(t *testing.T) {
	p, ms := newTestPlane(t, "shard-0", "shard-1", "shard-2")
	ring := NewRing(42, 32, ms)
	r := p.router(ring)
	ctx := context.Background()

	jobs := map[string]string{}
	for i := 0; i < 60; i++ {
		job, domain := fmt.Sprintf("j%d", i), fmt.Sprintf("shop%d.example.com", i)
		if _, err := r.InsertCtx(ctx, "requests", reqRow(job, domain)); err != nil {
			t.Fatal(err)
		}
		jobs[job] = domain
	}
	next := ring.Remove("shard-2")
	if _, err := r.Rebalance(ctx, next); err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, p, next, jobs, false)
	// Survivors hold everything; the retired member's rows moved off it.
	got := p.dbs["shard-0"].Counts()["requests"] + p.dbs["shard-1"].Counts()["requests"]
	if got != len(jobs) {
		t.Fatalf("survivors hold %d rows, want %d", got, len(jobs))
	}
}

// ackedRow is what a writer remembers of a row the router acked.
type ackedRow struct {
	table string
	id    int64
	job   string
}

// checkAcked asserts the two invariants of the plane through the router
// and, for placement, straight on the engines: every acked row is
// returned exactly once by a scatter select, under the ID it was acked
// under and with its job; no ID is returned twice; each acked row's
// authoritative copy sits on its key's owner; and every response's
// request_id is the ID of a request of the same job on the same member.
func checkAcked(t *testing.T, phase string, r *Router, p *testPlane, acked []ackedRow) {
	t.Helper()
	ctx := context.Background()
	ring := r.Ring()
	byID := map[string]map[int64]store.Row{}
	for _, table := range []string{"requests", "responses"} {
		rows, err := r.SelectCtx(ctx, store.Query{Table: table})
		if err != nil {
			t.Fatalf("%s: scatter %s: %v", phase, table, err)
		}
		byID[table] = make(map[int64]store.Row, len(rows))
		for _, row := range rows {
			id, _ := numericID(row[store.ID])
			if _, twice := byID[table][id]; twice {
				t.Fatalf("%s: %s row %d (job %v) returned twice by one scatter select", phase, table, id, row["job_id"])
			}
			byID[table][id] = row
		}
	}
	for _, a := range acked {
		row, ok := byID[a.table][a.id]
		if !ok {
			t.Fatalf("%s: acked %s row %d (job %s) missing from scatter select", phase, a.table, a.id, a.job)
		}
		if row["job_id"] != a.job {
			t.Fatalf("%s: %s row %d acked as job %s, now reads job %v", phase, a.table, a.id, a.job, row["job_id"])
		}
		owner := ring.Owner(KeyForRow(a.table, row)).ID
		held, err := p.dbs[owner].Get(a.table, a.id)
		if err != nil || held["job_id"] != a.job {
			t.Fatalf("%s: %s row %d (job %s) not on its key's owner %s: %v", phase, a.table, a.id, a.job, owner, err)
		}
		if a.table != "responses" {
			continue
		}
		ref, _ := numericID(row["request_id"])
		parent, err := p.dbs[owner].Get("requests", ref)
		if err != nil || parent["job_id"] != a.job {
			t.Fatalf("%s: response %d of job %s references request %d, which on %s is %v (%v)",
				phase, a.id, a.job, ref, owner, parent["job_id"], err)
		}
	}
}

// checkNoStrays asserts that every sharded row on every ring member is
// owned by that member — what a sweep must leave behind.
func checkNoStrays(t *testing.T, phase string, ring *Ring, p *testPlane) {
	t.Helper()
	for _, m := range ring.Members {
		for _, table := range []string{"requests", "responses"} {
			rows, err := p.dbs[m.ID].Select(store.Query{Table: table})
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				if owner := ring.Owner(KeyForRow(table, row)).ID; owner != m.ID {
					t.Fatalf("%s: %s row %v (job %v) left on %s, owner is %s", phase, table, row[store.ID], row["job_id"], m.ID, owner)
				}
			}
		}
	}
}

// TestRebalanceDualWriteWindow drives writes deterministically inside
// an open handoff window: rows inserted mid-window must end up exactly
// once after cutover under the IDs they were acked under, joins intact —
// including a response whose parent request predates the window — and
// by-ID updates and deletes made mid-window must hold on the copy that
// counts after cutover. A dual-write that fails on its second leg must
// leave no copy anywhere.
func TestRebalanceDualWriteWindow(t *testing.T) {
	p, ms := newTestPlane(t, "shard-0")
	ring := NewRing(42, 32, ms)
	r := p.router(ring)
	ctx := context.Background()

	jobs := map[string]string{}
	var acked []ackedRow
	insertReq := func(job, domain string) int64 {
		t.Helper()
		id, err := r.InsertCtx(ctx, "requests", reqRow(job, domain))
		if err != nil {
			t.Fatal(err)
		}
		jobs[job] = domain
		acked = append(acked, ackedRow{"requests", id, job})
		return id
	}
	insertResp := func(job, domain string, reqID int64) int64 {
		t.Helper()
		id, err := r.InsertCtx(ctx, "responses", store.Row{
			"job_id": job, "request_id": float64(reqID), "domain": domain,
		})
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, ackedRow{"responses", id, job})
		return id
	}
	preIDs := map[string]int64{}
	for i := 0; i < 30; i++ {
		job := fmt.Sprintf("pre%d", i)
		preIDs[job] = insertReq(job, fmt.Sprintf("shop%d.example.com", i))
	}

	next := ring.Add(p.addShard("shard-1"))
	if err := r.BeginUpdate(next); err != nil {
		t.Fatal(err)
	}
	moves := func(domain string) bool {
		return next.Owner(domain).ID != ring.Owner(domain).ID
	}

	// Mid-window: new request+response pairs (written to both owners when
	// moving), plus responses to pre-window parents, whose copy on the new
	// owner arrives before the parent it references does.
	midIDs := map[string]int64{}
	for i := 0; i < 30; i++ {
		job, domain := fmt.Sprintf("mid%d", i), fmt.Sprintf("shop%d.example.com", i)
		midIDs[job] = insertReq(job, domain)
		insertResp(job, domain, midIDs[job])
	}
	for i := 0; i < 30; i++ {
		job := fmt.Sprintf("pre%d", i)
		insertResp(job, jobs[job], preIDs[job])
	}

	// A dual-write whose second leg fails: pre-window job "pre<k>" of a
	// moving shop is not on the new owner yet, so the first leg lands
	// there, and the unique job_id index on the old owner rejects the
	// second. The first leg's copy must be gone again.
	var dupJob string
	for job, domain := range jobs {
		if moves(domain) && preIDs[job] != 0 {
			dupJob = job
			break
		}
	}
	if dupJob == "" {
		t.Fatal("no pre-window job moves; grow the fixture")
	}
	if _, err := r.InsertCtx(ctx, "requests", reqRow(dupJob, jobs[dupJob])); !errors.Is(err, store.ErrDupUnique) {
		t.Fatalf("duplicate job through the window: %v, want ErrDupUnique", err)
	}
	if left, _ := p.dbs["shard-1"].Select(store.Query{Table: "requests", Eq: map[string]any{"job_id": dupJob}}); len(left) != 0 {
		t.Fatalf("failed dual-write left %d copies on the new owner", len(left))
	}

	// By-ID mutations mid-window, on a moving row that exists on both
	// owners (mid) and on one the migration has yet to copy (pre).
	var updMid, updPre, delMid, delPre string
	for i := 0; i < 30 && (updMid == "" || delMid == ""); i++ {
		if domain := fmt.Sprintf("shop%d.example.com", i); moves(domain) {
			if updMid == "" {
				updMid, updPre = fmt.Sprintf("mid%d", i), fmt.Sprintf("pre%d", i)
			} else {
				delMid, delPre = fmt.Sprintf("mid%d", i), fmt.Sprintf("pre%d", i)
			}
		}
	}
	if delMid == "" {
		t.Fatal("fewer than two shops move; grow the fixture")
	}
	for _, u := range []struct {
		id  int64
		job string
	}{{midIDs[updMid], updMid}, {preIDs[updPre], updPre}} {
		if err := r.UpdateCtx(ctx, "requests", u.id, store.Row{"origin": "edited-" + u.job}); err != nil {
			t.Fatalf("update %s mid-window: %v", u.job, err)
		}
	}
	deleted := map[int64]bool{midIDs[delMid]: true, preIDs[delPre]: true}
	for id := range deleted {
		if err := r.DeleteCtx(ctx, "requests", id); err != nil {
			t.Fatalf("delete request %d mid-window: %v", id, err)
		}
	}
	// The deleted requests' responses would dangle; drop them from the
	// expectations along with the requests.
	kept := acked[:0]
	for _, a := range acked {
		if a.job == delMid || a.job == delPre {
			if a.table == "responses" {
				if err := r.DeleteCtx(ctx, "responses", a.id); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		kept = append(kept, a)
	}
	acked = kept
	delete(jobs, delMid)
	delete(jobs, delPre)

	checkAcked(t, "mid-window", r, p, acked)

	rep := &RebalanceReport{}
	if err := r.migrate(ctx, next, rep); err != nil {
		t.Fatal(err)
	}
	checkAcked(t, "after copy", r, p, acked)
	fleetBarrier([]*Router{r}, r.cutover)

	// Between cutover and the sweep, moved rows exist on both their old
	// and new owner; the ownership rule must keep reads exact.
	checkAcked(t, "after cutover", r, p, acked)
	for _, u := range []struct {
		id  int64
		job string
	}{{midIDs[updMid], updMid}, {preIDs[updPre], updPre}} {
		row, err := r.GetCtx(ctx, "requests", u.id)
		if err != nil || row["origin"] != "edited-"+u.job {
			t.Fatalf("update of %s lost across cutover: %v, %v", u.job, row["origin"], err)
		}
	}
	for id := range deleted {
		if _, err := r.GetCtx(ctx, "requests", id); !errors.Is(err, store.ErrNoRow) {
			t.Fatalf("request %d deleted mid-window is back after cutover: %v", id, err)
		}
	}

	freed, err := sweepFleet(ctx, []*Router{r})
	if err != nil {
		t.Fatal(err)
	}
	if freed == 0 {
		t.Fatal("post-cutover sweep freed nothing on the old owner")
	}
	checkAcked(t, "after sweep", r, p, acked)
	checkNoStrays(t, "after sweep", next, p)
	checkExactlyOnce(t, p, next, jobs, true)
}

// TestRebalancePropertyRandomSequence is the acked-exactly-once
// property test: a random grow/shrink/abort sequence over a two-router
// fleet, with writers racing every window, must at every point — inside
// the window, after cutover, after an abort, after the sweep — return
// each acked row exactly once under the ID it was acked under, from its
// key's owner, with every response still pointing at its own request.
func TestRebalancePropertyRandomSequence(t *testing.T) {
	p, ms := newTestPlane(t, "shard-0")
	ring := NewRing(7, 32, ms)
	fleet := []*Router{p.router(ring), p.router(ring)}
	lead := fleet[0]
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))

	var mu sync.Mutex
	var acked []ackedRow
	jobs := map[string]string{}
	snapshot := func() ([]ackedRow, map[string]string) {
		mu.Lock()
		defer mu.Unlock()
		js := make(map[string]string, len(jobs))
		for k, v := range jobs {
			js[k] = v
		}
		return append([]ackedRow(nil), acked...), js
	}
	var stop, done chan struct{}
	seq := 0
	startWriters := func() {
		stop, done = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				seq++
				r := fleet[seq%len(fleet)]
				job, domain := fmt.Sprintf("w%d", seq), fmt.Sprintf("shop%d.example.com", seq%97)
				reqID, err := r.InsertCtx(ctx, "requests", reqRow(job, domain))
				if err != nil {
					continue
				}
				got := []ackedRow{{"requests", reqID, job}}
				// One response alone, two more as a batch: both write paths.
				resp := func(n int) store.Row {
					return store.Row{"job_id": job, "request_id": float64(reqID), "domain": domain, "n": n}
				}
				if id, err := r.InsertCtx(ctx, "responses", resp(0)); err == nil {
					got = append(got, ackedRow{"responses", id, job})
				}
				if ids, err := r.InsertBatchCtx(ctx, "responses", []store.Row{resp(1), resp(2)}); err == nil {
					for _, id := range ids {
						got = append(got, ackedRow{"responses", id, job})
					}
				}
				mu.Lock()
				acked = append(acked, got...)
				jobs[job] = domain
				mu.Unlock()
			}
		}()
	}
	stopWriters := func() {
		close(stop)
		<-done
	}
	check := func(phase string) {
		t.Helper()
		rows, _ := snapshot()
		for _, r := range fleet {
			checkAcked(t, phase, r, p, rows)
		}
	}

	shardSeq := 0
	live := []string{"shard-0"}
	aborts := 0
	for step := 0; step < 8; step++ {
		var next *Ring
		after := live
		if len(live) > 2 && rng.Intn(2) == 0 {
			victim := live[1+rng.Intn(len(live)-1)] // never shard-0 (Home)
			next = lead.Ring().Remove(victim)
			after = nil
			for _, id := range live {
				if id != victim {
					after = append(after, id)
				}
			}
		} else {
			shardSeq++
			id := fmt.Sprintf("shard-%d", shardSeq)
			next = lead.Ring().Add(p.addShard(id))
			after = append(append([]string(nil), live...), id)
		}
		phase := func(s string) string { return fmt.Sprintf("step %d (v%d) %s", step, next.Version, s) }
		startWriters()
		switch step % 3 {
		case 0: // the production path, whole
			if _, err := FleetRebalance(ctx, fleet, next); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live = after
		default: // the same phases by hand, looked at in between
			if _, err := sweepFleet(ctx, fleet); err != nil {
				t.Fatal(err)
			}
			for _, r := range fleet {
				if err := r.BeginUpdate(next); err != nil {
					t.Fatal(err)
				}
			}
			check(phase("mid-window"))
			if err := lead.migrate(ctx, next, &RebalanceReport{}); err != nil {
				t.Fatal(err)
			}
			check(phase("after copy"))
			if step%3 == 2 { // injected abort: copies made, cutover never happens
				for _, r := range fleet {
					r.AbortUpdate()
				}
				aborts++
				check(phase("after abort"))
				break
			}
			fleetBarrier(fleet, func() {
				for _, r := range fleet {
					r.cutover()
				}
			})
			live = after
			check(phase("after cutover"))
			if _, err := sweepFleet(ctx, fleet); err != nil {
				t.Fatal(err)
			}
		}
		stopWriters()
		check(phase("settled"))
		if step%3 != 2 {
			_, js := snapshot()
			checkNoStrays(t, phase("settled"), lead.Ring(), p)
			checkExactlyOnce(t, p, lead.Ring(), js, true)
		}
	}
	if len(acked) == 0 || aborts == 0 {
		t.Fatalf("acked %d rows over %d aborts; the property was never exercised", len(acked), aborts)
	}
}
