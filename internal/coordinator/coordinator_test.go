package coordinator

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pricesheriff/internal/cluster"
	"pricesheriff/internal/doppelganger"
	"pricesheriff/internal/geo"
	"pricesheriff/internal/tracker"
	"pricesheriff/internal/transport"
)

// fakeClock is an adjustable clock for heartbeat-timeout tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func newServerList(policy Policy) (*ServerList, *fakeClock) {
	clk := &fakeClock{t: time.UnixMilli(0)}
	return NewServerList(5*time.Second, policy, clk.now), clk
}

func TestLeastPendingAssignment(t *testing.T) {
	l, _ := newServerList(LeastPending)
	l.Register("a")
	l.Register("b")
	// Pre-load "a" with 3 pending jobs.
	l.Heartbeat("a", 3)
	for i := 0; i < 3; i++ {
		addr, err := l.Assign()
		if err != nil {
			t.Fatal(err)
		}
		if addr != "b" {
			t.Fatalf("assignment %d went to %s, want b (least pending)", i, addr)
		}
	}
	// Now both have 3: next assignment may go to either; drain b.
	snap := l.Snapshot()
	if snap[0].Pending != 3 || snap[1].Pending != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	l.Done("b")
	addr, _ := l.Assign()
	if addr != "b" {
		t.Errorf("after Done, assignment = %s", addr)
	}
}

func TestRoundRobinBaseline(t *testing.T) {
	l, _ := newServerList(RoundRobin)
	l.Register("a")
	l.Register("b")
	l.Register("c")
	var got []string
	for i := 0; i < 6; i++ {
		addr, err := l.Assign()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, addr)
	}
	want := "a,b,c,a,b,c"
	if strings.Join(got, ",") != want {
		t.Errorf("round robin = %v", got)
	}
}

func TestHeartbeatTimeout(t *testing.T) {
	l, clk := newServerList(LeastPending)
	l.Register("a")
	l.Register("b")
	clk.advance(3 * time.Second)
	l.Heartbeat("b", 0)
	clk.advance(3 * time.Second) // "a" silent for 6s > 5s timeout
	addr, err := l.Assign()
	if err != nil || addr != "b" {
		t.Errorf("assign = %s, %v; want b (a offline)", addr, err)
	}
	snap := l.Snapshot()
	if snap[0].Online || !snap[1].Online {
		t.Errorf("online flags = %+v", snap)
	}
	// A heartbeat revives "a".
	l.Heartbeat("a", 0)
	if snap := l.Snapshot(); !snap[0].Online {
		t.Error("heartbeat did not revive server")
	}
}

func TestNoServers(t *testing.T) {
	l, clk := newServerList(LeastPending)
	if _, err := l.Assign(); err != ErrNoServers {
		t.Errorf("empty list: %v", err)
	}
	l.Register("a")
	clk.advance(10 * time.Second)
	if _, err := l.Assign(); err != ErrNoServers {
		t.Errorf("all offline: %v", err)
	}
	rr, clk2 := newServerList(RoundRobin)
	rr.Register("a")
	clk2.advance(10 * time.Second)
	if _, err := rr.Assign(); err != ErrNoServers {
		t.Errorf("rr all offline: %v", err)
	}
}

func TestRemoveServer(t *testing.T) {
	l, _ := newServerList(LeastPending)
	l.Register("a")
	l.Assign()
	if err := l.Remove("a"); err != ErrServerBusy {
		t.Errorf("busy removal: %v", err)
	}
	l.Done("a")
	if err := l.Remove("a"); err != nil {
		t.Errorf("removal: %v", err)
	}
	if _, err := l.Assign(); err != ErrNoServers {
		t.Error("removed server still assignable")
	}
	if err := l.Remove("zz"); err != ErrUnknownServer {
		t.Errorf("unknown removal: %v", err)
	}
	// Re-register revives.
	l.Register("a")
	if _, err := l.Assign(); err != nil {
		t.Errorf("revived server not assignable: %v", err)
	}
}

func TestHeartbeatUnknown(t *testing.T) {
	l, _ := newServerList(LeastPending)
	if err := l.Heartbeat("zz", 0); err != ErrUnknownServer {
		t.Errorf("unknown heartbeat: %v", err)
	}
	if err := l.Done("zz"); err != ErrUnknownServer {
		t.Errorf("unknown done: %v", err)
	}
}

func TestWhitelist(t *testing.T) {
	w := NewWhitelist([]string{"amazon.com", "chegg.com"})
	if !w.Check("amazon.com") {
		t.Error("sanctioned domain rejected")
	}
	if w.Check("evil.example") {
		t.Error("unsanctioned domain allowed")
	}
	w.Check("evil.example")
	w.Check("other.example")
	rej := w.Rejected()
	if len(rej) != 2 || rej[0] != "evil.example" {
		t.Errorf("rejected = %v", rej)
	}
	w.Add("evil.example")
	if !w.Check("evil.example") {
		t.Error("added domain still rejected")
	}
	if w.Size() != 3 {
		t.Errorf("size = %d", w.Size())
	}
}

func newCoordinator(t *testing.T) (*Coordinator, *geo.World) {
	t.Helper()
	world := geo.NewWorld()
	sl, _ := newServerList(LeastPending)
	sl.Register("ms-1")
	wl := NewWhitelist([]string{"shop.com"})
	return New(sl, wl, world), world
}

func registerPeers(t *testing.T, c *Coordinator, world *geo.World, country string, n int) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n) + 17))
	ids := make([]string, n)
	for i := range ids {
		ip, _ := world.RandomIP(rng, country, "")
		ids[i] = fmt.Sprintf("%s-peer-%d", country, i)
		if _, err := c.RegisterPeer(ids[i], ip.String()); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

func TestRegisterPeerGeolocates(t *testing.T) {
	c, world := newCoordinator(t)
	ids := registerPeers(t, c, world, "ES", 3)
	peers := c.Peers()
	if len(peers) != 3 {
		t.Fatalf("peers = %d", len(peers))
	}
	for _, p := range peers {
		if p.Country != "ES" || p.City == "" {
			t.Errorf("peer = %+v", p)
		}
	}
	c.UnregisterPeer(ids[0])
	if len(c.Peers()) != 2 {
		t.Error("unregister failed")
	}
	if _, err := c.RegisterPeer("x", "8.8.8.8"); err == nil {
		t.Error("unlocatable IP must be rejected")
	}
}

func TestPeersNearSameCountryExcludingInitiator(t *testing.T) {
	c, world := newCoordinator(t)
	es := registerPeers(t, c, world, "ES", 6)
	registerPeers(t, c, world, "FR", 4)

	got := c.PeersNear(es[0], 3)
	if len(got) != 3 {
		t.Fatalf("peers near = %d", len(got))
	}
	for _, p := range got {
		if p.Country != "ES" {
			t.Errorf("peer from %s", p.Country)
		}
		if p.ID == es[0] {
			t.Error("initiator included in its own PPC list")
		}
	}
	// Rotation: successive requests spread over the pool.
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		for _, p := range c.PeersNear(es[0], 3) {
			seen[p.ID] = true
		}
	}
	if len(seen) != 5 {
		t.Errorf("rotation covered %d peers, want all 5 others", len(seen))
	}
	// Unknown initiator.
	if got := c.PeersNear("ghost", 3); got != nil {
		t.Errorf("unknown initiator = %v", got)
	}
}

func TestJobLifecycle(t *testing.T) {
	c, world := newCoordinator(t)
	es := registerPeers(t, c, world, "ES", 4)

	job, err := c.NewJob(context.Background(), "shop.com", es[0])
	if err != nil {
		t.Fatal(err)
	}
	if job.ServerAddr != "ms-1" || !strings.HasPrefix(job.ID, "job-") {
		t.Errorf("job = %+v", job)
	}
	// A second incarnation mints its own IDs: the store outlives the
	// counter, so a restart must not hand out job-…-00000001 again.
	c2, _ := newCoordinator(t)
	registerPeers(t, c2, world, "ES", 1)
	if again, err := c2.NewJob(context.Background(), "shop.com", es[0]); err != nil || again.ID == job.ID {
		t.Errorf("next incarnation's first job = %+v, %v; want an ID other than %s", again, err, job.ID)
	}
	if len(job.PPCs) != 3 {
		t.Errorf("job ppcs = %d", len(job.PPCs))
	}
	ppcs, err := c.JobPPCs(job.ID)
	if err != nil || len(ppcs) != 3 {
		t.Errorf("JobPPCs = %v, %v", ppcs, err)
	}
	if c.Servers.Snapshot()[0].Pending != 1 {
		t.Error("pending counter not incremented")
	}
	if err := c.JobDone(job.ID); err != nil {
		t.Fatal(err)
	}
	if c.Servers.Snapshot()[0].Pending != 0 {
		t.Error("pending counter not decremented")
	}
	if err := c.JobDone(job.ID); err == nil {
		t.Error("double done must fail")
	}
	if _, err := c.JobPPCs("job-404"); err == nil {
		t.Error("unknown job must fail")
	}
}

func TestNewJobWhitelistRejection(t *testing.T) {
	c, world := newCoordinator(t)
	es := registerPeers(t, c, world, "ES", 1)
	if _, err := c.NewJob(context.Background(), "evil.example", es[0]); err == nil {
		t.Fatal("unwhitelisted domain accepted")
	}
	// The rejection is logged and no server slot was consumed.
	if got := c.Whitelist.Rejected(); len(got) != 1 || got[0] != "evil.example" {
		t.Errorf("rejected = %v", got)
	}
	if c.Servers.Snapshot()[0].Pending != 0 {
		t.Error("rejected job consumed a slot")
	}
}

func TestDoppelgangerStateDistribution(t *testing.T) {
	c, _ := newCoordinator(t)
	trs := []*tracker.Tracker{tracker.New("adnet.example")}
	mgr := doppelganger.NewManager([]string{"a.example"}, doppelganger.TrackerTrainer{Trackers: trs})
	if err := mgr.RebuildAll([]cluster.Point{{1}}); err != nil {
		t.Fatal(err)
	}
	c.Dopps = mgr
	tok, _ := mgr.Token(0)
	state, err := c.DoppelgangerState(tok)
	if err != nil || len(state) == 0 {
		t.Errorf("state = %v, %v", state, err)
	}
	if _, err := c.DoppelgangerState("bogus"); err == nil {
		t.Error("bogus token accepted")
	}
	c.Dopps = nil
	if _, err := c.DoppelgangerState(tok); err == nil {
		t.Error("nil manager must fail")
	}
}

func TestCoordinatorOverWire(t *testing.T) {
	c, world := newCoordinator(t)
	netw := transport.NewInproc()
	lis, _ := netw.Listen("")
	srv := NewServer(c, lis)
	go srv.Serve()
	defer srv.Close()

	cl, err := DialCoordinator(netw, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(5))
	var ids []string
	for i := 0; i < 4; i++ {
		ip, _ := world.RandomIP(rng, "DE", "")
		id := fmt.Sprintf("wire-peer-%d", i)
		info, err := cl.RegisterPeer(id, ip.String())
		if err != nil {
			t.Fatal(err)
		}
		if info.Country != "DE" {
			t.Errorf("info = %+v", info)
		}
		ids = append(ids, id)
	}
	if err := cl.RegisterServer("ms-wire"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.HeartbeatCtx(ctx, "ms-wire", 0, false); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.NewJobCtx(ctx, "shop.com", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	ppcs, err := cl.JobPPCsCtx(ctx, resp.JobID)
	if err != nil || len(ppcs) != 3 {
		t.Fatalf("ppcs = %v, %v", ppcs, err)
	}
	if err := cl.JobDoneCtx(ctx, resp.JobID); err != nil {
		t.Fatal(err)
	}
	// A dropped job leaves the tracker and the verdict index: the next
	// check of the same question is a fresh job, not an attach to it.
	p, err := cl.ScheduleCheck(ctx, "shop.com", ids[1], "k", false)
	if err != nil || p.Source != SourceFanout {
		t.Fatalf("ScheduleCheck = %+v, %v", p, err)
	}
	cl.DropJob(p.JobID)
	if n := c.PendingJobs(); n != 0 {
		t.Errorf("%d jobs pending after the drop, want 0", n)
	}
	if q, err := cl.ScheduleCheck(ctx, "shop.com", ids[1], "k", false); err != nil || q.Source != SourceFanout || q.JobID == p.JobID {
		t.Errorf("check after the drop = %+v, %v; want a fresh job", q, err)
	}
	servers, err := cl.Servers()
	if err != nil || len(servers) != 2 {
		t.Errorf("servers = %v, %v", servers, err)
	}
	peers, err := cl.Peers()
	if err != nil || len(peers) != 4 {
		t.Errorf("peers = %d, %v", len(peers), err)
	}
	if err := cl.UnregisterPeer(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.NewJobCtx(ctx, "evil.example", ids[1]); err == nil || !transport.IsRemote(err) {
		t.Errorf("remote whitelist rejection = %v", err)
	}
}

func BenchmarkAssignLeastPending(b *testing.B) {
	l, _ := newServerList(LeastPending)
	for i := 0; i < 16; i++ {
		l.Register(fmt.Sprintf("ms-%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr, err := l.Assign()
		if err != nil {
			b.Fatal(err)
		}
		l.Done(addr)
	}
}

func TestHeartbeatReconcilesLostJobDone(t *testing.T) {
	// Sect. 10.3: if a job-done message is lost to the network, the
	// periodic heartbeat carries the server's true pending count and the
	// Coordinator corrects its view.
	l, _ := newServerList(LeastPending)
	l.Register("ms-1")
	for i := 0; i < 3; i++ {
		if _, err := l.Assign(); err != nil {
			t.Fatal(err)
		}
	}
	// Two jobs complete but only one Done arrives.
	l.Done("ms-1")
	if got := l.Snapshot()[0].Pending; got != 2 {
		t.Fatalf("pending = %d", got)
	}
	// The server's heartbeat reports the truth: one job still running.
	if err := l.Heartbeat("ms-1", 1); err != nil {
		t.Fatal(err)
	}
	if got := l.Snapshot()[0].Pending; got != 1 {
		t.Errorf("pending after reconciliation = %d, want 1", got)
	}
}

func TestPeersNearCityGranularity(t *testing.T) {
	c, world := newCoordinator(t)
	c.Granularity = ByCity
	rng := rand.New(rand.NewSource(77))
	// Two peers in Barcelona, one in Madrid.
	for i, city := range []string{"Barcelona", "Barcelona", "Madrid"} {
		ip, ok := world.RandomIP(rng, "ES", city)
		if !ok {
			t.Fatal("no city IP")
		}
		if _, err := c.RegisterPeer(fmt.Sprintf("city-peer-%d", i), ip.String()); err != nil {
			t.Fatal(err)
		}
	}
	got := c.PeersNear("city-peer-0", 5)
	if len(got) != 1 || got[0].ID != "city-peer-1" {
		t.Errorf("city-granularity peers = %+v", got)
	}
}
