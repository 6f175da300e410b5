package ha

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pricesheriff/internal/chaos"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/transport"
)

// testClock is the shared virtual clock: protocol timing flows entirely
// through Tick(now), so tests advance time explicitly and the lease and
// election math is deterministic.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.UnixMilli(0)} }

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// recordSM is a replicated append-only journal of applied commands.
type recordSM struct {
	mu      sync.Mutex
	applied []string
	resets  int
}

func (s *recordSM) Apply(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied = append(s.applied, e.Cmd.Kind+":"+string(e.Cmd.Data))
}

func (s *recordSM) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied = nil
	s.resets++
}

func (s *recordSM) snapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.applied...)
}

// Protocol intervals for the virtual-time tests.
const (
	tHeartbeat = 100 * time.Millisecond
	tLease     = 800 * time.Millisecond
	tStagger   = 200 * time.Millisecond
)

type testReplica struct {
	addr string
	fab  *chaos.Fabric // this replica's outbound path
	srv  *transport.Server
	node *Node
	sm   *recordSM
	reg  *obs.Registry
}

type testCluster struct {
	t        *testing.T
	clk      *testClock
	inner    *transport.Inproc
	replicas []*testReplica
}

// newCluster boots n replicas over one inproc network. Each replica
// dials out through its own chaos fabric so tests can cut links
// per-direction, and listens on the shared inner fabric so inbound
// traffic is controlled by the *sender's* fabric — the same shape as
// one fabric per OS process in the e2e.
func newCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, clk: newTestClock(), inner: transport.NewInproc()}
	var peers []string
	for i := 0; i < n; i++ {
		peers = append(peers, fmt.Sprintf("ha-node-%d", i))
	}
	for i := 0; i < n; i++ {
		lis, err := tc.inner.Listen(peers[i])
		if err != nil {
			t.Fatal(err)
		}
		srv := transport.NewServer(lis)
		fab := chaos.NewFabric(tc.inner, chaos.Config{Seed: int64(i)})
		sm := &recordSM{}
		reg := obs.NewRegistry()
		node, err := NewNode(Config{
			Self:              peers[i],
			Peers:             peers,
			Fabric:            fab,
			HeartbeatInterval: tHeartbeat,
			LeaseTimeout:      tLease,
			ElectionStagger:   tStagger,
			CallTimeout:       2 * time.Second,
			Seed:              int64(i),
			SM:                sm,
			Metrics:           NewMetrics(reg),
			Now:               tc.clk.now,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.Register(srv)
		go srv.Serve()
		r := &testReplica{addr: peers[i], fab: fab, srv: srv, node: node, sm: sm, reg: reg}
		tc.replicas = append(tc.replicas, r)
		t.Cleanup(func() {
			r.node.Close()
			r.srv.Close()
			r.fab.Close()
		})
	}
	return tc
}

// tickAll delivers one virtual-time step to every live replica.
func (tc *testCluster) tickAll(step time.Duration) {
	tc.clk.advance(step)
	now := tc.clk.now()
	for _, r := range tc.replicas {
		r.node.Tick(now)
	}
}

// waitFor advances virtual time in heartbeat steps (ticking everyone)
// until cond holds, giving the real-goroutine RPCs a moment to land
// after each step. The budget is generous: time is virtual, so extra
// iterations are free when healthy, and a loaded machine (the -race
// suite) may need many 2ms windows before the vote/append goroutines
// all get scheduled.
func (tc *testCluster) waitFor(what string, cond func() bool) {
	tc.t.Helper()
	for i := 0; i < 2500; i++ {
		if cond() {
			return
		}
		tc.tickAll(tHeartbeat / 2)
		time.Sleep(2 * time.Millisecond)
	}
	tc.t.Fatalf("timed out waiting for %s", what)
}

// settle lets in-flight RPCs finish without advancing time.
func settle() { time.Sleep(20 * time.Millisecond) }

func (tc *testCluster) primaries() []*testReplica {
	var out []*testReplica
	for _, r := range tc.replicas {
		if r.node.IsPrimary() {
			out = append(out, r)
		}
	}
	return out
}

// assertOnePrimaryPerTerm gathers every replica's promotion history and
// fails on a term promoted twice — the split-brain invariant.
func (tc *testCluster) assertOnePrimaryPerTerm() {
	tc.t.Helper()
	seen := map[uint64]string{}
	for _, r := range tc.replicas {
		st := r.node.StatusSnapshot()
		for _, term := range st.PromotedTerms {
			if prev, dup := seen[term]; dup && prev != r.addr {
				tc.t.Fatalf("split brain: term %d promoted on both %s and %s", term, prev, r.addr)
			}
			seen[term] = r.addr
		}
	}
}

func TestSingleNodeBootstrap(t *testing.T) {
	tc := newCluster(t, 1)
	r := tc.replicas[0]
	if r.node.IsPrimary() {
		t.Fatal("primary before any tick")
	}
	// One node is its own majority: the first election timeout promotes.
	tc.tickAll(tLease + tStagger + tHeartbeat)
	if !r.node.IsPrimary() {
		t.Fatal("single node did not self-promote")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := r.node.AppendWait(ctx, Command{Kind: "set", Data: json.RawMessage(`"x"`)}); err != nil {
		t.Fatalf("AppendWait: %v", err)
	}
	// A primary's own state is mutated by its caller before Append, so
	// the SM sees nothing here; the log itself must show noop + command,
	// all committed (one node is its own quorum).
	st := r.node.StatusSnapshot()
	if st.LastIndex != 2 || st.Commit != 2 || st.Applied != 2 {
		t.Fatalf("status = last %d commit %d applied %d, want 2/2/2",
			st.LastIndex, st.Commit, st.Applied)
	}
	if v := r.reg.Counter("sheriff_ha_failovers_total").Value(); v != 1 {
		t.Fatalf("failovers_total = %d, want 1", v)
	}
}

func TestThreeNodeSinglePrimaryElection(t *testing.T) {
	tc := newCluster(t, 3)
	tc.waitFor("a primary", func() bool { return len(tc.primaries()) >= 1 })
	settle()
	prims := tc.primaries()
	if len(prims) != 1 {
		t.Fatalf("got %d primaries, want 1", len(prims))
	}
	// The rank-0 node's election timer fires first under the stagger.
	if prims[0].addr != "ha-node-0" {
		t.Errorf("primary = %s, want ha-node-0 (lowest stagger rank)", prims[0].addr)
	}
	// Heartbeats teach every replica the leader.
	tc.waitFor("followers to learn the leader", func() bool {
		for _, r := range tc.replicas {
			if r.node.Leader() != prims[0].addr {
				return false
			}
		}
		return true
	})
	tc.assertOnePrimaryPerTerm()
}

func TestReplicationCommitAndLagMetric(t *testing.T) {
	tc := newCluster(t, 3)
	tc.waitFor("a primary", func() bool { return len(tc.primaries()) == 1 })
	p := tc.primaries()[0]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		cmd := Command{Kind: "job", Data: json.RawMessage(fmt.Sprintf(`"j%d"`, i))}
		if err := p.node.AppendWait(ctx, cmd); err != nil {
			t.Fatalf("AppendWait %d: %v", i, err)
		}
	}
	// Commit propagates to the standbys on the next heartbeat; each
	// standby applies the identical sequence. (The primary's own SM sees
	// nothing — its caller mutates the live state before Append.)
	tc.waitFor("standbys to apply", func() bool {
		for _, r := range tc.replicas {
			if r != p && len(r.sm.snapshot()) != 6 { // noop + 5 jobs
				return false
			}
		}
		return true
	})
	var want []string
	for _, r := range tc.replicas {
		if r == p {
			continue
		}
		got := r.sm.snapshot()
		if got[0] != "noop:" || got[3] != `job:"j2"` {
			t.Fatalf("%s applied = %v", r.addr, got)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s applied[%d] = %q, want %q", r.addr, i, got[i], want[i])
			}
		}
	}
	// Fully caught-up standbys show zero replication lag on the primary.
	for _, ps := range p.node.StatusSnapshot().Peers {
		if ps.Lag != 0 {
			t.Errorf("peer %s lag = %d, want 0", ps.Addr, ps.Lag)
		}
		if g := p.reg.Gauge("sheriff_ha_replication_lag", "peer", ps.Addr).Value(); g != 0 {
			t.Errorf("lag gauge for %s = %d, want 0", ps.Addr, g)
		}
	}
}

func TestFailoverAfterPrimaryDeath(t *testing.T) {
	tc := newCluster(t, 3)
	tc.waitFor("a primary", func() bool { return len(tc.primaries()) == 1 })
	p := tc.primaries()[0]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.node.AppendWait(ctx, Command{Kind: "job", Data: json.RawMessage(`"pre"`)}); err != nil {
		t.Fatalf("AppendWait: %v", err)
	}
	oldTerm := p.node.Term()

	// Kill the primary outright (node and listener).
	p.node.Close()
	p.srv.Close()

	// A standby must promote within the failover bound: the worst-case
	// election timeout of the slowest survivor plus a round of ticks.
	bound := tLease + 3*tStagger + 2*tHeartbeat
	start := tc.clk.now()
	var next *testReplica
	tc.waitFor("a successor", func() bool {
		for _, r := range tc.replicas {
			if r != p && r.node.IsPrimary() {
				next = r
				return true
			}
		}
		return false
	})
	if took := tc.clk.now().Sub(start); took > bound {
		t.Errorf("failover took %v of virtual time, bound %v", took, bound)
	}
	if next.node.Term() <= oldTerm {
		t.Errorf("successor term %d not above old term %d", next.node.Term(), oldTerm)
	}
	// The accepted (committed) entry survived the failover.
	found := false
	for _, s := range next.sm.snapshot() {
		if s == `job:"pre"` {
			found = true
		}
	}
	if !found {
		t.Errorf("committed entry lost across failover: %v", next.sm.snapshot())
	}
	if v := next.reg.Counter("sheriff_ha_failovers_total").Value(); v != 1 {
		t.Errorf("successor failovers_total = %d, want 1", v)
	}
	st := next.node.StatusSnapshot()
	if st.LastFailover == nil || st.LastFailover.Cause == "" {
		t.Errorf("successor has no failover cause: %+v", st.LastFailover)
	}
	tc.assertOnePrimaryPerTerm()
}

func TestPartitionedPrimaryStepsDownNoSplitBrain(t *testing.T) {
	tc := newCluster(t, 3)
	tc.waitFor("a primary", func() bool { return len(tc.primaries()) == 1 })
	p := tc.primaries()[0]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.node.AppendWait(ctx, Command{Kind: "job", Data: json.RawMessage(`"pre"`)}); err != nil {
		t.Fatalf("AppendWait: %v", err)
	}

	// Cut the primary off in both directions: its outbound fabric stops
	// reaching the standbys, and each standby's fabric stops reaching it.
	for _, r := range tc.replicas {
		if r == p {
			continue
		}
		chaos.Partition(p.fab, r.fab, p.addr, r.addr)
	}

	// The isolated primary loses its lease and steps down on its own;
	// the connected majority elects a successor in a later term.
	tc.waitFor("old primary to step down", func() bool { return !p.node.IsPrimary() })
	var next *testReplica
	tc.waitFor("a successor", func() bool {
		for _, r := range tc.replicas {
			if r != p && r.node.IsPrimary() {
				next = r
				return true
			}
		}
		return false
	})
	tc.assertOnePrimaryPerTerm()

	// Heal: the old primary rejoins as a follower of the new term and
	// catches up, including entries appended while it was away.
	if err := next.node.AppendWait(ctx, Command{Kind: "job", Data: json.RawMessage(`"post"`)}); err != nil {
		t.Fatalf("AppendWait after failover: %v", err)
	}
	for _, r := range tc.replicas {
		if r == p {
			continue
		}
		chaos.HealPartition(p.fab, r.fab, p.addr, r.addr)
	}
	// The old primary accepted job:"pre" by direct mutation (its SM never
	// saw it), so rejoining means: follower of the new leader, log caught
	// up through the successor's entries, and the post-failover command
	// applied through the SM.
	tc.waitFor("old primary to rejoin and catch up", func() bool {
		if p.node.IsPrimary() || p.node.Leader() != next.addr {
			return false
		}
		want := next.node.StatusSnapshot()
		st := p.node.StatusSnapshot()
		if st.LastIndex != want.LastIndex || st.Commit != want.Commit {
			return false
		}
		for _, s := range p.sm.snapshot() {
			if s == `job:"post"` {
				return true
			}
		}
		return false
	})
	tc.assertOnePrimaryPerTerm()
}

// TestLaggingCandidateCannotStarveTheUpToDateStandby: the standby whose
// election timer fires first missed the last committed entry, so nobody
// may vote for it. Its ever-higher-term vote requests must not keep
// resetting the other standby's timer — the one replica that can win has
// to get its turn. (This was TestFailoverAfterPrimaryDeath's one-in-ten
// timeout: whenever the pre-kill append happened to commit through the
// slower-ranked standby alone.)
func TestLaggingCandidateCannotStarveTheUpToDateStandby(t *testing.T) {
	tc := newCluster(t, 3)
	tc.waitFor("a primary", func() bool { return len(tc.primaries()) == 1 })
	p := tc.primaries()[0]
	var eager, current *testReplica // the standby that stands first, and the other
	for _, r := range tc.replicas {
		switch {
		case r == p:
		case eager == nil:
			eager = r
		case r.node.rank < eager.node.rank:
			eager, current = r, eager
		default:
			current = r
		}
	}
	p.fab.Block(eager.addr) // the eager standby misses what follows
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.node.AppendWait(ctx, Command{Kind: "job", Data: json.RawMessage(`"pre"`)}); err != nil {
		t.Fatalf("AppendWait: %v", err)
	}
	p.node.Close()
	p.srv.Close()

	start := tc.clk.now()
	tc.waitFor("the up-to-date standby to take over", current.node.IsPrimary)
	if took := tc.clk.now().Sub(start); took > 10*tLease {
		t.Errorf("failover took %v of virtual time", took)
	}
	if eager.node.IsPrimary() {
		t.Error("the standby that missed a committed entry was elected")
	}
	tc.assertOnePrimaryPerTerm()
}

func TestAppendWaitNeedsQuorum(t *testing.T) {
	tc := newCluster(t, 3)
	tc.waitFor("a primary", func() bool { return len(tc.primaries()) == 1 })
	p := tc.primaries()[0]
	// Isolate the primary's outbound path: appends cannot reach any
	// standby, so AppendWait cannot commit and must report the caller's
	// deadline rather than acknowledging a check that could be lost.
	for _, r := range tc.replicas {
		if r != p {
			p.fab.Block(r.addr)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	err := p.node.AppendWait(ctx, Command{Kind: "job", Data: json.RawMessage(`"lost"`)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AppendWait on quorumless primary = %v, want deadline", err)
	}
}

func TestNotPrimaryRedirect(t *testing.T) {
	tc := newCluster(t, 3)
	tc.waitFor("a primary", func() bool { return len(tc.primaries()) == 1 })
	p := tc.primaries()[0]
	tc.waitFor("followers to learn the leader", func() bool {
		for _, r := range tc.replicas {
			if r.node.Leader() != p.addr {
				return false
			}
		}
		return true
	})
	for _, r := range tc.replicas {
		if r == p {
			continue
		}
		err := r.node.Append(Command{Kind: "job"})
		var np *NotPrimaryError
		if !errors.As(err, &np) {
			t.Fatalf("standby Append error = %v, want NotPrimaryError", err)
		}
		if np.Leader != p.addr {
			t.Errorf("redirect hint = %q, want %q", np.Leader, p.addr)
		}
		if !errors.Is(err, transport.ErrNotPrimary) {
			t.Errorf("NotPrimaryError does not match transport.ErrNotPrimary")
		}
		if v := r.reg.Counter("sheriff_ha_not_primary_total").Value(); v != 0 {
			// Append builds the error directly; the counter belongs to
			// the gate (NotPrimary()), exercised via the server path.
			t.Errorf("unexpected not_primary_total = %d", v)
		}
	}
}

func TestDurableVoteSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fab := transport.NewInproc()
	clk := newTestClock()
	mk := func() *Node {
		n, err := NewNode(Config{
			Self:   "solo",
			Peers:  []string{"solo", "other"},
			Fabric: fab,
			Dir:    dir,
			Now:    clk.now,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := mk()
	// Vote in term 7.
	resp := n.handleVote(&VoteReq{Term: 7, Candidate: "other"})
	if !resp.Granted {
		t.Fatal("vote not granted")
	}
	n.Close()
	// The restarted node remembers both the term and the vote: a rival
	// candidate in the same term is refused.
	n2 := mk()
	defer n2.Close()
	if n2.Term() != 7 {
		t.Fatalf("restarted term = %d, want 7", n2.Term())
	}
	if r := n2.handleVote(&VoteReq{Term: 7, Candidate: "rival"}); r.Granted {
		t.Fatal("restarted node voted twice in one term")
	}
	if r := n2.handleVote(&VoteReq{Term: 7, Candidate: "other"}); !r.Granted {
		t.Fatal("restarted node forgot its own vote")
	}
}

// TestUnloggedStateIsNeverAcked breaks each durable write under a node in
// turn. A vote whose term/vote write failed is not granted, a follower
// whose log refused an entry does not acknowledge it, and a primary does
// not count such an entry of its own towards commit.
func TestUnloggedStateIsNeverAcked(t *testing.T) {
	fab := transport.NewInproc()
	clk := newTestClock()
	mk := func(peers ...string) *Node {
		n, err := NewNode(Config{
			Self: peers[0], Peers: peers, Fabric: fab, Dir: t.TempDir(), Now: clk.now,
			HeartbeatInterval: tHeartbeat, LeaseTimeout: tLease, ElectionStagger: tStagger,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}

	// The state file's temporary is a directory: the write fails (a
	// permission bit would not stop a test running as root).
	voter := mk("voter", "cand")
	tmp := filepath.Join(voter.cfg.Dir, stateFile+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if r := voter.handleVote(&VoteReq{Term: 3, Candidate: "cand"}); r.Granted {
		t.Fatal("granted a vote the disk does not hold")
	}
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	if r := voter.handleVote(&VoteReq{Term: 3, Candidate: "cand"}); !r.Granted {
		t.Fatal("vote refused once its write succeeds")
	}

	follower := mk("follower", "leader")
	follower.wal.Close()
	resp, err := follower.handleAppend(&AppendReq{
		Term: 1, Leader: "leader", Commit: 1,
		Entries: []Entry{{Index: 1, Term: 1, Cmd: Command{Kind: CmdNoop}}},
	})
	if err == nil || (resp != nil && resp.Ok) {
		t.Fatalf("follower acknowledged an unlogged entry: %+v, %v", resp, err)
	}
	if st := follower.StatusSnapshot(); st.LastIndex != 0 || st.Commit != 0 {
		t.Fatalf("follower holds last %d commit %d of an unlogged entry, want 0/0", st.LastIndex, st.Commit)
	}

	solo := mk("solo")
	clk.advance(tLease + tStagger + tHeartbeat)
	solo.Tick(clk.now())
	if !solo.IsPrimary() {
		t.Fatal("single node did not self-promote")
	}
	solo.wal.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := solo.AppendWait(ctx, Command{Kind: "set", Data: json.RawMessage(`"x"`)}); err == nil {
		t.Fatal("AppendWait acknowledged an entry its own log refused")
	}
	if st := solo.StatusSnapshot(); st.LastIndex != 1 || st.Commit != 1 {
		t.Fatalf("primary at last %d commit %d, want 1/1 (the term-start no-op only)", st.LastIndex, st.Commit)
	}
}
