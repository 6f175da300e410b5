package coordinator

import (
	"context"
	"testing"
	"time"

	"pricesheriff/internal/obs"
	"pricesheriff/internal/retry"
	"pricesheriff/internal/transport"
)

// verdictCoord is a coordinator with two servers and users in two
// countries (two cities in Spain), placed without the geolocation lookup.
func verdictCoord(t *testing.T) (*Coordinator, *obs.Registry) {
	t.Helper()
	c := New(NewServerList(time.Minute, LeastPending, nil), NewWhitelist([]string{"x.com"}), nil)
	reg := obs.NewRegistry()
	c.Metrics = NewMetrics(reg)
	c.Servers.Register("s1")
	c.Servers.Register("s2")
	for _, p := range []PeerInfo{
		{ID: "es-1", Country: "ES", City: "Madrid"},
		{ID: "es-2", Country: "ES", City: "Madrid"},
		{ID: "es-3", Country: "ES", City: "Barcelona"},
		{ID: "fr-1", Country: "FR", City: "Paris"},
	} {
		c.RestorePeer(p)
	}
	return c, reg
}

func schedule(t *testing.T, c *Coordinator, user, key string, fresh bool) Placement {
	t.Helper()
	p, err := c.ScheduleCheck(context.Background(), "x.com", user, key, fresh)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func indexEntries(reg *obs.Registry) int64 {
	return reg.Gauge("sheriff_coordinator_verdict_index_entries").Value()
}

func TestScheduleCheckCoalescesThenCachesThenExpires(t *testing.T) {
	c, reg := verdictCoord(t)
	c.VerdictTTL = 80 * time.Millisecond

	first := schedule(t, c, "es-1", "k", false)
	if first.Source != SourceFanout || first.JobID == "" || first.ServerAddr == "" {
		t.Fatalf("first placement = %+v, want a fresh job", first)
	}
	if got := c.PendingJobs(); got != 1 {
		t.Fatalf("pending jobs = %d, want 1", got)
	}
	second := schedule(t, c, "es-2", "k", false)
	if second.Source != SourceCoalesced || second.JobID != first.JobID || second.ServerAddr != first.ServerAddr {
		t.Fatalf("duplicate while in flight = %+v, want coalesced onto %s@%s", second, first.JobID, first.ServerAddr)
	}
	if got := c.PendingJobs(); got != 1 {
		t.Errorf("pending jobs = %d after an attach, want 1 (nothing minted)", got)
	}
	if n := reg.Counter("sheriff_coordinator_jobs_scheduled_total").Value(); n != 1 {
		t.Errorf("jobs scheduled = %d, want 1", n)
	}

	before := time.Now()
	if err := c.JobDone(first.JobID); err != nil {
		t.Fatal(err)
	}
	third := schedule(t, c, "es-2", "k", false)
	if third.Source != SourceCached || third.JobID != first.JobID {
		t.Fatalf("duplicate after completion = %+v, want cached %s", third, first.JobID)
	}
	if third.DoneAt.Before(before) || third.DoneAt.After(time.Now()) {
		t.Errorf("DoneAt = %v, want the moment of JobDone (%v..now)", third.DoneAt, before)
	}
	if n := indexEntries(reg); n != 1 {
		t.Errorf("index entries = %d, want 1", n)
	}

	time.Sleep(c.VerdictTTL + 10*time.Millisecond)
	fourth := schedule(t, c, "es-2", "k", false)
	if fourth.Source != SourceFanout || fourth.JobID == first.JobID {
		t.Fatalf("duplicate past the TTL = %+v, want a fresh job", fourth)
	}
	if n := indexEntries(reg); n != 1 {
		t.Errorf("index entries = %d after expiry and re-index, want 1", n)
	}
}

func TestScheduleCheckKeyParts(t *testing.T) {
	c, reg := verdictCoord(t)
	base := schedule(t, c, "es-1", "k", false)

	// Another country is another question: other PPCs answer it.
	if p := schedule(t, c, "fr-1", "k", false); p.Source != SourceFanout || p.JobID == base.JobID {
		t.Errorf("same key from FR = %+v, want its own job", p)
	}
	// So is another check key.
	if p := schedule(t, c, "es-2", "k2", false); p.Source != SourceFanout {
		t.Errorf("another key = %+v, want its own job", p)
	}
	// Country granularity: another city of Spain shares.
	if p := schedule(t, c, "es-3", "k", false); p.Source != SourceCoalesced || p.JobID != base.JobID {
		t.Errorf("same key from Barcelona = %+v, want coalesced onto %s", p, base.JobID)
	}
	// No key, or an initiator the registry cannot place: plain NewJob,
	// nothing indexed.
	n := indexEntries(reg)
	if p := schedule(t, c, "es-1", "", false); p.Source != SourceFanout {
		t.Errorf("unkeyed = %+v", p)
	}
	if p := schedule(t, c, "stranger", "k", false); p.Source != SourceFanout {
		t.Errorf("unplaced initiator = %+v", p)
	}
	if got := indexEntries(reg); got != n {
		t.Errorf("index entries moved %d -> %d on unkeyed/unplaced checks", n, got)
	}

	// City granularity splits Spain, exactly as PeersNear would.
	c2, _ := verdictCoord(t)
	c2.Granularity = ByCity
	madrid := schedule(t, c2, "es-1", "k", false)
	if p := schedule(t, c2, "es-3", "k", false); p.Source != SourceFanout {
		t.Errorf("ByCity: Barcelona = %+v, want its own job", p)
	}
	if p := schedule(t, c2, "es-2", "k", false); p.Source != SourceCoalesced || p.JobID != madrid.JobID {
		t.Errorf("ByCity: Madrid = %+v, want coalesced onto %s", p, madrid.JobID)
	}
}

func TestScheduleCheckFreshTakesTheKeyOver(t *testing.T) {
	c, _ := verdictCoord(t)
	old := schedule(t, c, "es-1", "k", false)
	fresh := schedule(t, c, "es-2", "k", true)
	if fresh.Source != SourceFanout || fresh.JobID == old.JobID {
		t.Fatalf("fresh = %+v, want a new job", fresh)
	}
	if p := schedule(t, c, "es-1", "k", false); p.JobID != fresh.JobID || p.Source != SourceCoalesced {
		t.Errorf("after a fresh schedule the key answers %+v, want coalesced onto %s", p, fresh.JobID)
	}
	// The superseded job's completion does not turn the newer, still
	// running job's entry into a verdict.
	if err := c.JobDone(old.JobID); err != nil {
		t.Fatal(err)
	}
	if p := schedule(t, c, "es-1", "k", false); p.Source != SourceCoalesced || p.JobID != fresh.JobID {
		t.Errorf("after the old job finished: %+v, want still coalesced onto %s", p, fresh.JobID)
	}
}

func TestDroppedAndRequeuedJobsLeaveTheIndex(t *testing.T) {
	c, reg := verdictCoord(t)
	dropped := schedule(t, c, "es-1", "k", false)
	c.DropJob(dropped.JobID)
	if n := indexEntries(reg); n != 0 {
		t.Errorf("index entries = %d after DropJob, want 0", n)
	}
	if p := schedule(t, c, "es-2", "k", false); p.Source != SourceFanout {
		t.Errorf("after DropJob: %+v, want a fresh job", p)
	}

	clock := newFakeClock()
	c2 := requeueCoord(clock)
	c2.Servers.Register("s1")
	c2.Servers.Register("s2")
	c2.RestorePeer(PeerInfo{ID: "es-1", Country: "ES"})
	moved := schedule(t, c2, "es-1", "k", false)
	clock.advance(200 * time.Millisecond)
	other := "s2"
	if moved.ServerAddr == "s2" {
		other = "s1"
	}
	if err := c2.Servers.Heartbeat(other, 0); err != nil {
		t.Fatal(err)
	}
	if n := c2.RequeueLapsed(); n != 1 {
		t.Fatalf("requeued = %d, want 1", n)
	}
	if p := schedule(t, c2, "es-1", "k", false); p.Source != SourceFanout || p.JobID == moved.JobID {
		t.Errorf("after a requeue: %+v, want a fresh job (attachers of %s wait on a dead server)", p, moved.JobID)
	}
}

func TestResetReplicatedEmptiesTheIndex(t *testing.T) {
	c, reg := verdictCoord(t)
	p := schedule(t, c, "es-1", "k", false)
	schedule(t, c, "es-1", "k2", false)
	if err := c.JobDone(p.JobID); err != nil {
		t.Fatal(err)
	}
	if n := indexEntries(reg); n != 2 {
		t.Fatalf("index entries = %d, want 2", n)
	}
	c.ResetReplicated()
	if n := indexEntries(reg); n != 0 {
		t.Errorf("index entries = %d after ResetReplicated, want 0", n)
	}
	c.Servers.Register("s1")
	c.RestorePeer(PeerInfo{ID: "es-1", Country: "ES"})
	if got := schedule(t, c, "es-1", "k", false); got.Source != SourceFanout {
		t.Errorf("after ResetReplicated: %+v, want a fresh job", got)
	}
}

// TestScheduleCheckOverTheWire: the keyed call rides coord.newjob's
// trailing fields; an unkeyed NewJobCtx on the same method still mints.
func TestScheduleCheckOverTheWire(t *testing.T) {
	c, _ := verdictCoord(t)
	netw := transport.NewInproc()
	lis, err := netw.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c, lis)
	go srv.Serve()
	defer srv.Close()
	cl, err := DialCoordinator(netw, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	first, err := cl.ScheduleCheck(ctx, "x.com", "es-1", "k", false)
	if err != nil || first.Source != SourceFanout {
		t.Fatalf("first = %+v, %v", first, err)
	}
	second, err := cl.ScheduleCheck(ctx, "x.com", "es-2", "k", false)
	if err != nil || second.Source != SourceCoalesced || second.JobID != first.JobID || second.ServerAddr != first.ServerAddr {
		t.Fatalf("second = %+v, %v; want coalesced onto %+v", second, err, first)
	}
	if err := cl.JobDoneCtx(ctx, first.JobID); err != nil {
		t.Fatal(err)
	}
	done := time.Now()
	time.Sleep(20 * time.Millisecond)
	third, err := cl.ScheduleCheck(ctx, "x.com", "es-2", "k", false)
	if err != nil || third.Source != SourceCached || third.JobID != first.JobID {
		t.Fatalf("third = %+v, %v; want cached %s", third, err, first.JobID)
	}
	// The age crossed the wire in whole milliseconds.
	if d := third.DoneAt.Sub(done); d < -5*time.Millisecond || d > 5*time.Millisecond {
		t.Errorf("DoneAt is %v off the completion", d)
	}
	fourth, err := cl.ScheduleCheck(ctx, "x.com", "es-2", "k", true)
	if err != nil || fourth.Source != SourceFanout || fourth.JobID == first.JobID {
		t.Fatalf("fresh = %+v, %v; want a new job", fourth, err)
	}
	plain, err := cl.NewJobCtx(ctx, "x.com", "es-1")
	if err != nil || plain.JobID == "" || plain.Source != "" {
		t.Fatalf("NewJobCtx = %+v, %v", plain, err)
	}
}

// TestNewJobFramesWithoutTrailingFields: a coord.newjob request or answer
// that ends before the trailing fields decodes as an unkeyed NewJob.
func TestNewJobFramesWithoutTrailingFields(t *testing.T) {
	short := transport.AppendString(transport.AppendString(nil, "x.com"), "es-1")
	var req NewJobReq
	if err := req.DecodeWire(transport.NewWireDec(short)); err != nil {
		t.Fatal(err)
	}
	if req.Domain != "x.com" || req.InitiatorID != "es-1" || req.Key != "" || req.Fresh {
		t.Errorf("short request decoded to %+v", req)
	}
	var resp NewJobResp
	if err := resp.DecodeWire(transport.NewWireDec(transport.AppendString(transport.AppendString(nil, "job-1"), "s1"))); err != nil {
		t.Fatal(err)
	}
	if resp.JobID != "job-1" || resp.ServerAddr != "s1" || resp.Source != "" || resp.AgeMS != 0 {
		t.Errorf("short response decoded to %+v", resp)
	}
	full := (&NewJobReq{Domain: "x.com", InitiatorID: "es-1", Key: "k", Fresh: true}).AppendWire(nil)
	var back NewJobReq
	if err := back.DecodeWire(transport.NewWireDec(full)); err != nil || back.Key != "k" || !back.Fresh {
		t.Errorf("full request round trip = %+v, %v", back, err)
	}
}

// TestFailoverEmptiesTheIndexAndLosesNothing: the index is soft state of
// the primary. After a failover the successor answers the same key with a
// fresh job — and still tracks, and completes, the job the old primary had
// acknowledged.
func TestFailoverEmptiesTheIndexAndLosesNothing(t *testing.T) {
	netw, replicas := newHACluster(t, 3)
	for _, r := range replicas {
		r.c.RestorePeer(PeerInfo{ID: "es-1", Country: "ES"})
		r.c.RestorePeer(PeerInfo{ID: "es-2", Country: "ES"})
	}
	waitFor(t, "initial election", func() bool { return primaryOf(replicas) != nil })
	prim := primaryOf(replicas)
	cl, err := DialCoordinatorCluster(netw, []string{"coord-0", "coord-1", "coord-2"},
		retry.Policy{MaxAttempts: 400, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.RegisterServer("ms-1"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	first, err := cl.ScheduleCheck(ctx, "shop.example", "es-1", "k", false)
	if err != nil || first.Source != SourceFanout {
		t.Fatalf("first = %+v, %v", first, err)
	}
	dup, err := cl.ScheduleCheck(ctx, "shop.example", "es-2", "k", false)
	if err != nil || dup.Source != SourceCoalesced || dup.JobID != first.JobID {
		t.Fatalf("duplicate = %+v, %v; want coalesced onto %s", dup, err, first.JobID)
	}
	// The attach replicated nothing; the job did. Standbys index nothing.
	waitFor(t, "standbys to apply the job", func() bool {
		for _, r := range replicas {
			if r.c.PendingJobs() != 1 {
				return false
			}
		}
		return true
	})
	for _, r := range replicas {
		r.c.mu.Lock()
		n := len(r.c.verdicts)
		r.c.mu.Unlock()
		if want := map[bool]int{true: 1, false: 0}[r == prim]; n != want {
			t.Errorf("replica %s indexes %d verdicts, want %d", r.addr, n, want)
		}
	}

	prim.srv.Close()
	prim.node.Close()
	var succ *haReplica
	waitFor(t, "standby promotion", func() bool {
		for _, r := range replicas {
			if r != prim && r.node.IsPrimary() {
				succ = r
				return true
			}
		}
		return false
	})
	again, err := cl.ScheduleCheck(ctx, "shop.example", "es-2", "k", false)
	if err != nil || again.Source != SourceFanout || again.JobID == first.JobID {
		t.Fatalf("after the failover = %+v, %v; want a fresh job (the index did not move)", again, err)
	}
	if got := succ.c.PendingJobs(); got != 2 {
		t.Errorf("successor tracks %d jobs, want 2 (the acknowledged one survived)", got)
	}
	if err := cl.JobDoneCtx(ctx, first.JobID); err != nil {
		t.Errorf("JobDone for the pre-failover job: %v", err)
	}
}
