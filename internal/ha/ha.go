// Package ha replicates the Coordinator control plane: a lease-based
// primary election over heartbeats with monotonic term numbers, and
// log-style replication of coordinator state from the primary to its
// standbys over the internal/transport RPC fabric.
//
// The deployed Price $heriff ran a single Coordinator in front of its
// measurement fleet — the one component whose death stopped the whole
// service (paper Sect. 3.1.1). This package removes that single point of
// failure: several coordinator replicas form a cluster, exactly one holds
// the primary lease per term, every accepted state change is replicated
// as a log entry, and when the primary dies a standby promotes itself
// within the lease bound and replays the replicated state so
// accepted-but-unfinished checks are requeued rather than dropped.
//
// The protocol is a deliberately small cousin of Raft, sized for a
// control plane whose full state fits in memory:
//
//   - Terms are monotonic. A node votes at most once per term (durably,
//     when a data dir is configured), and a candidate needs a majority of
//     the fixed peer set — so two primaries can never share a term.
//   - Votes prefer the longer log (last entry term, then length), so a
//     promotion loses at most the entries the dead primary never managed
//     to replicate to any majority — and those were never acknowledged
//     to a client, because acknowledgement waits for commit.
//   - The primary's lease is its heartbeat fan-out: while a majority of
//     standbys keep acknowledging appends, the primary keeps serving.
//     When it loses a majority for a lease interval it steps down on its
//     own, before any standby's election timer can elect a successor —
//     the other half of the no-split-brain argument.
//
// All timing decisions flow through Tick with an injectable clock, so
// tests drive elections and lease expiries under virtual time.
package ha

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"pricesheriff/internal/history"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/transport"
)

// State is a node's role in the cluster.
type State int

// Roles.
const (
	Follower State = iota
	Candidate
	Primary
)

// String renders the role for panels and logs.
func (s State) String() string {
	switch s {
	case Primary:
		return "primary"
	case Candidate:
		return "candidate"
	default:
		return "follower"
	}
}

// Errors returned by the node.
var (
	// ErrNotPrimary is returned (and gated handlers return it over the
	// wire) when an operation needs the primary lease this node does not
	// hold. It unwraps to transport.ErrNotPrimary so cluster-aware clients
	// fail over on it.
	ErrNotPrimary = &NotPrimaryError{}
	// ErrLostLease fails AppendWait calls cut short by a demotion: the
	// entry may or may not survive, the caller must treat the operation
	// as unacknowledged and retry against the new primary.
	ErrLostLease = errors.New("ha: lost primary lease before commit")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("ha: node closed")
)

// NotPrimaryError tells a client which node to talk to instead. It
// carries transport.CodeNotPrimary across the RPC boundary and the known
// leader address as the redirect hint.
type NotPrimaryError struct {
	// Leader is the current primary's address ("" when unknown).
	Leader string
}

func (e *NotPrimaryError) Error() string {
	if e.Leader == "" {
		return "ha: not the primary (leader unknown)"
	}
	return fmt.Sprintf("ha: not the primary (leader=%s)", e.Leader)
}

// RPCCode implements transport.RPCCoder.
func (e *NotPrimaryError) RPCCode() string { return transport.CodeNotPrimary }

// RPCHint implements transport.RPCHinter with the leader address.
func (e *NotPrimaryError) RPCHint() string { return e.Leader }

// Is matches any NotPrimaryError (and transport.ErrNotPrimary matches via
// the wire code).
func (e *NotPrimaryError) Is(target error) bool {
	if target == transport.ErrNotPrimary {
		return true
	}
	var np *NotPrimaryError
	return errors.As(target, &np)
}

// Config sizes a Node.
type Config struct {
	// Self is this node's dialable address; it must appear in Peers.
	Self string
	// Peers is the full, fixed replica set (including Self). Majorities
	// are computed against len(Peers).
	Peers []string
	// Fabric dials the other replicas.
	Fabric transport.Network
	// HeartbeatInterval is the primary's append/heartbeat cadence
	// (default 250ms).
	HeartbeatInterval time.Duration
	// LeaseTimeout is how long a standby waits without hearing a primary
	// before starting an election, and how long a primary tolerates
	// losing its standby majority before stepping down (default 8×
	// heartbeat).
	LeaseTimeout time.Duration
	// ElectionStagger spaces the replicas' election timers (rank in the
	// sorted peer list × stagger, plus seeded jitter) so concurrent
	// candidacies are rare (default LeaseTimeout/4).
	ElectionStagger time.Duration
	// CallTimeout bounds each peer RPC (default 1s).
	CallTimeout time.Duration
	// Dir, when set, persists term and vote so a crashed-and-restarted
	// node cannot vote twice in one term. Empty keeps them in memory.
	Dir string
	// Seed drives the election jitter.
	Seed int64
	// SM receives committed commands; see StateMachine.
	SM StateMachine
	// OnPromote runs synchronously when this node wins an election, after
	// the local log has been applied through the state machine and before
	// the primary gate opens. It must not call back into the Node.
	OnPromote func(term uint64)
	// OnDemote runs synchronously when this node loses the primary role,
	// after the state machine has been reset to the committed prefix. It
	// must not call back into the Node.
	OnDemote func(term uint64)
	// Metrics instruments the node (nil disables).
	Metrics *Metrics
	// Log records elections, promotions and replication trouble (nil
	// disables).
	Log *obs.Logger
	// Now is the clock (default time.Now); tests inject virtual time.
	Now func() time.Time
}

// FailoverInfo describes the most recent promotion this node performed.
type FailoverInfo struct {
	Term  uint64    `json:"term"`
	At    time.Time `json:"at"`
	Cause string    `json:"cause"`
}

// Node is one replica of the coordinator control plane.
type Node struct {
	cfg      Config
	rank     int // index of Self in the sorted peer set
	majority int
	rng      *rand.Rand

	mu        sync.Mutex
	state     State
	term      uint64
	votedFor  string
	leader    string // believed current primary ("" unknown)
	log       []Entry
	commit    uint64
	applied   uint64
	lastHeard time.Time // last credible leader/vote activity
	lastBeat  time.Time // primary: last heartbeat fan-out
	jitter    time.Duration
	votes     map[string]bool
	peers     map[string]*peerState
	waiters   map[uint64][]chan error
	closed    bool

	failovers     int64
	lastFailover  *FailoverInfo
	promotedTerms []uint64

	wal *history.WAL // durable log (nil without a Dir)

	stopRun chan struct{}
	runOnce sync.Once
	wg      sync.WaitGroup
}

// peerState is the primary's view of one standby.
type peerState struct {
	addr  string
	nudge chan struct{}

	mu        sync.Mutex
	cli       *transport.Client
	nextIndex uint64
	match     uint64
	lastAck   time.Time
	inflight  bool
}

// NewNode validates the config and builds a node in the follower state.
// Call Register to expose its RPC surface, then Start (or drive Tick
// manually under virtual time).
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("ha: config needs Self")
	}
	if cfg.Fabric == nil {
		return nil, errors.New("ha: config needs a Fabric")
	}
	peers := append([]string(nil), cfg.Peers...)
	sort.Strings(peers)
	rank := -1
	for i, p := range peers {
		if p == cfg.Self {
			rank = i
		}
	}
	if rank < 0 {
		return nil, fmt.Errorf("ha: Self %q not in Peers %v", cfg.Self, cfg.Peers)
	}
	cfg.Peers = peers
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 250 * time.Millisecond
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 8 * cfg.HeartbeatInterval
	}
	if cfg.ElectionStagger <= 0 {
		cfg.ElectionStagger = cfg.LeaseTimeout / 4
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	n := &Node{
		cfg:      cfg,
		rank:     rank,
		majority: len(peers)/2 + 1,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		peers:    make(map[string]*peerState),
		waiters:  make(map[uint64][]chan error),
		stopRun:  make(chan struct{}),
	}
	n.lastHeard = cfg.Now()
	n.jitter = n.drawJitter()
	if cfg.Dir != "" {
		st, err := loadState(cfg.Dir)
		if err != nil {
			return nil, err
		}
		n.term = st.Term
		n.votedFor = st.VotedFor
		// Recover the replicated log from the WAL (the PR 4 machinery):
		// a restarted replica rejoins with its log intact, so a full
		// cluster restart loses no accepted check.
		if err := n.openLog(); err != nil {
			return nil, err
		}
	}
	n.cfg.Metrics.setTerm(n.term)
	n.cfg.Metrics.setLastIndex(uint64(len(n.log)))
	n.cfg.Metrics.setState(n.state)
	for _, addr := range peers {
		if addr == cfg.Self {
			continue
		}
		p := &peerState{addr: addr, nudge: make(chan struct{}, 1)}
		n.peers[addr] = p
		n.wg.Add(1)
		go n.peerLoop(p)
	}
	return n, nil
}

// drawJitter picks this election round's seeded jitter in [0, Stagger).
func (n *Node) drawJitter() time.Duration {
	if n.cfg.ElectionStagger <= 0 {
		return 0
	}
	return time.Duration(n.rng.Int63n(int64(n.cfg.ElectionStagger)))
}

// electionTimeout is how long this node waits in silence before standing
// for election: the lease, plus a rank-proportional stagger, plus seeded
// jitter — deterministic under virtual time, and de-synchronized across
// the replica set so the first timer to fire usually wins uncontested.
func (n *Node) electionTimeout() time.Duration {
	return n.cfg.LeaseTimeout + time.Duration(n.rank)*n.cfg.ElectionStagger + n.jitter
}

// Start runs the production tick loop (half the heartbeat interval)
// until Close. Tests skip Start and call Tick directly.
func (n *Node) Start() {
	n.runOnce.Do(func() {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			t := time.NewTicker(n.cfg.HeartbeatInterval / 2)
			defer t.Stop()
			for {
				select {
				case <-n.stopRun:
					return
				case <-t.C:
					n.Tick(n.cfg.Now())
				}
			}
		}()
	})
}

// Tick advances the protocol clock: a primary fans out heartbeats and
// checks its lease, everyone else checks the election timer. All timing
// decisions live here, so driving Tick with a virtual clock makes the
// protocol deterministic in tests.
func (n *Node) Tick(now time.Time) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	switch n.state {
	case Primary:
		beat := now.Sub(n.lastBeat) >= n.cfg.HeartbeatInterval
		if beat {
			n.lastBeat = now
		}
		lost := !n.quorumAlive(now)
		if lost {
			n.stepDownLocked(n.term, "", "lease lost: no standby majority")
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()
		if beat {
			n.nudgeAll()
		}
		return
	default:
		if now.Sub(n.lastHeard) >= n.electionTimeout() {
			n.startElectionLocked(now)
		}
		n.mu.Unlock()
	}
}

// quorumAlive reports whether a majority of the cluster (self included)
// acknowledged this primary within the lease. Callers hold n.mu.
func (n *Node) quorumAlive(now time.Time) bool {
	alive := 1 // self
	for _, p := range n.peers {
		p.mu.Lock()
		ok := !p.lastAck.IsZero() && now.Sub(p.lastAck) <= n.cfg.LeaseTimeout
		p.mu.Unlock()
		if ok {
			alive++
		}
	}
	return alive >= n.majority
}

// startElectionLocked stands for election: bump the term, vote for self,
// and solicit the peers. Callers hold n.mu.
func (n *Node) startElectionLocked(now time.Time) {
	n.state = Candidate
	n.term++
	n.votedFor = n.cfg.Self
	n.leader = ""
	n.lastHeard = now
	if err := n.persistLocked(); err != nil {
		// A self-vote the disk does not hold could be cast again, for
		// someone else, after a restart: sit this term out unvoted.
		n.state, n.votedFor = Follower, ""
		n.cfg.Log.Error(context.Background(), "ha: not standing: vote not persisted", "term", n.term, "err", err)
		return
	}
	n.votes = map[string]bool{n.cfg.Self: true}
	n.jitter = n.drawJitter()
	n.cfg.Metrics.election()
	n.cfg.Metrics.setTerm(n.term)
	n.cfg.Metrics.setState(n.state)
	n.cfg.Log.Info(context.Background(), "ha: standing for election",
		"term", n.term, "self", n.cfg.Self)
	lastIdx, lastTerm := n.lastLocked()
	req := &VoteReq{Term: n.term, Candidate: n.cfg.Self, LastIndex: lastIdx, LastTerm: lastTerm}
	if n.majority == 1 {
		n.becomePrimaryLocked(now)
		return
	}
	for _, p := range n.peers {
		go n.solicitVote(p, req)
	}
}

// solicitVote asks one peer for its vote in one election round.
func (n *Node) solicitVote(p *peerState, req *VoteReq) {
	var resp VoteResp
	if err := n.call(p, "ha.vote", req, &resp); err != nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	if resp.Term > n.term {
		n.stepDownLocked(resp.Term, "", "vote response carried a higher term")
		return
	}
	if n.state != Candidate || n.term != req.Term || !resp.Granted {
		return
	}
	n.votes[p.addr] = true
	if len(n.votes) >= n.majority {
		n.becomePrimaryLocked(n.cfg.Now())
	}
}

// becomePrimaryLocked promotes this node: catch the state machine up to
// the whole local log, append the term-start no-op that lets previous
// terms' entries commit, and open for business. Callers hold n.mu.
func (n *Node) becomePrimaryLocked(now time.Time) {
	cause := "previous primary lost"
	if n.leader == "" && n.failovers == 0 && len(n.log) == 0 {
		cause = "bootstrap"
	}
	n.state = Primary
	n.leader = n.cfg.Self
	n.lastBeat = now
	n.failovers++
	n.lastFailover = &FailoverInfo{Term: n.term, At: now, Cause: cause}
	n.promotedTerms = append(n.promotedTerms, n.term)
	for _, p := range n.peers {
		p.mu.Lock()
		p.nextIndex = uint64(len(n.log)) + 1
		p.match = 0
		p.lastAck = now
		p.mu.Unlock()
	}
	// Replay the uncommitted tail into the state machine: as primary we
	// serve from the full local log (optimistic, like any leader), and
	// acknowledgement still waits for commit.
	n.applyRangeLocked(n.applied+1, uint64(len(n.log)))
	n.applied = uint64(len(n.log))
	n.cfg.Metrics.failover()
	n.cfg.Metrics.setState(n.state)
	n.cfg.Log.Info(context.Background(), "ha: promoted to primary",
		"term", n.term, "cause", cause, "log_len", len(n.log))
	if n.cfg.OnPromote != nil {
		n.cfg.OnPromote(n.term)
	}
	// The no-op makes this term's commit rule reach back over earlier
	// terms' entries (the standard leader-completeness fix). nudgeAll is
	// lock-free (buffered channel sends), so it is safe under n.mu.
	if _, err := n.appendLocked(Command{Kind: CmdNoop}); err != nil {
		n.cfg.Log.Error(context.Background(), "ha: term-start no-op not logged", "term", n.term, "err", err)
	}
	n.nudgeAll()
}

// stepDownLocked drops to follower in the given term. The state machine
// rewinds to the committed prefix: anything this node applied
// optimistically as primary (or candidate bookkeeping) beyond commit may
// not survive under the next primary. Callers hold n.mu.
func (n *Node) stepDownLocked(term uint64, leader, why string) {
	wasPrimary := n.state == Primary
	oldTerm := n.term
	if term > n.term {
		n.term = term
		n.votedFor = ""
		if err := n.persistLocked(); err != nil {
			// Harmless on its own: no vote is cast in the new term until
			// a write of it succeeds.
			n.cfg.Log.Error(context.Background(), "ha: persist term", "term", term, "err", err)
		}
	}
	n.state = Follower
	n.leader = leader
	n.lastHeard = n.cfg.Now()
	n.cfg.Metrics.setTerm(n.term)
	n.cfg.Metrics.setState(n.state)
	if wasPrimary {
		n.cfg.Log.Warn(context.Background(), "ha: stepping down",
			"term", oldTerm, "new_term", n.term, "why", why)
		n.failWaitersLocked(ErrLostLease)
		if n.applied > n.commit {
			n.rebuildLocked(n.commit)
		}
		if n.cfg.OnDemote != nil {
			n.cfg.OnDemote(n.term)
		}
	}
}

// rebuildLocked resets the state machine and replays the log up to idx.
// Callers hold n.mu.
func (n *Node) rebuildLocked(idx uint64) {
	if n.cfg.SM != nil {
		n.cfg.SM.Reset()
	}
	n.applied = 0
	n.applyRangeLocked(1, idx)
	n.applied = idx
}

// applyRangeLocked feeds entries [from, to] to the state machine.
// Callers hold n.mu.
func (n *Node) applyRangeLocked(from, to uint64) {
	if n.cfg.SM == nil {
		return
	}
	for i := from; i <= to && i <= uint64(len(n.log)); i++ {
		n.cfg.SM.Apply(n.log[i-1])
	}
}

// lastLocked returns the last log index and its term. Callers hold n.mu.
func (n *Node) lastLocked() (idx, term uint64) {
	if len(n.log) == 0 {
		return 0, 0
	}
	e := n.log[len(n.log)-1]
	return e.Index, e.Term
}

// appendLocked appends one command as primary and marks it applied (the
// primary's state machine was already mutated by the caller, or the
// command is a no-op). Callers hold n.mu; returns the new entry's index.
// An entry the durable log refused is taken back out: it is neither
// replicated nor counted towards its own commit.
func (n *Node) appendLocked(cmd Command) (uint64, error) {
	idx := uint64(len(n.log)) + 1
	e := Entry{Index: idx, Term: n.term, Cmd: cmd}
	if err := n.walAppendLocked(e); err != nil {
		return 0, err
	}
	n.log = append(n.log, e)
	n.applied = idx
	n.cfg.Metrics.appended()
	n.cfg.Metrics.setLastIndex(idx)
	if n.majority == 1 {
		n.advanceCommitLocked()
	}
	return idx, nil
}

// Append replicates one command from the primary, without waiting for
// commit — for chatty soft-state updates whose loss heals by itself.
// The caller must already have applied the command to its own state.
func (n *Node) Append(cmd Command) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.state != Primary {
		leader := n.leader
		n.mu.Unlock()
		return &NotPrimaryError{Leader: leader}
	}
	_, err := n.appendLocked(cmd)
	n.mu.Unlock()
	if err != nil {
		return err
	}
	n.nudgeAll()
	return nil
}

// AppendWait replicates one command and blocks until it commits (a
// majority of replicas hold it) or the context/lease dies. An accepted
// price check is only acknowledged through here, which is what makes
// "accepted" survive a failover.
func (n *Node) AppendWait(ctx context.Context, cmd Command) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.state != Primary {
		leader := n.leader
		n.mu.Unlock()
		return &NotPrimaryError{Leader: leader}
	}
	idx, err := n.appendLocked(cmd)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	if n.commit >= idx {
		n.mu.Unlock()
		return nil
	}
	ch := make(chan error, 1)
	n.waiters[idx] = append(n.waiters[idx], ch)
	n.mu.Unlock()
	n.nudgeAll()
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// advanceCommitLocked recomputes the commit index from the majority
// match, releases waiters, and (on followers-only clusters of one)
// applies directly. Only entries of the current term commit by counting
// — earlier entries commit transitively. Callers hold n.mu.
func (n *Node) advanceCommitLocked() {
	last := uint64(len(n.log))
	for idx := last; idx > n.commit; idx-- {
		if n.log[idx-1].Term != n.term {
			break
		}
		count := 1 // self
		for _, p := range n.peers {
			p.mu.Lock()
			if p.match >= idx {
				count++
			}
			p.mu.Unlock()
		}
		if count >= n.majority {
			n.commit = idx
			break
		}
	}
	n.cfg.Metrics.setCommit(n.commit)
	for idx, chans := range n.waiters {
		if idx <= n.commit {
			for _, ch := range chans {
				ch <- nil
			}
			delete(n.waiters, idx)
		}
	}
}

// failWaitersLocked fails every pending AppendWait. Callers hold n.mu.
func (n *Node) failWaitersLocked(err error) {
	for idx, chans := range n.waiters {
		for _, ch := range chans {
			ch <- err
		}
		delete(n.waiters, idx)
	}
}

// nudgeAll wakes every peer sender.
func (n *Node) nudgeAll() {
	for _, p := range n.peers {
		select {
		case p.nudge <- struct{}{}:
		default:
		}
	}
}

// IsPrimary reports whether this node currently holds the lease.
func (n *Node) IsPrimary() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state == Primary
}

// Term returns the current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// Leader returns the believed primary's address ("" when unknown).
func (n *Node) Leader() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader
}

// NotPrimary builds the redirect error for gated handlers.
func (n *Node) NotPrimary() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	leader := n.leader
	if n.state == Primary {
		leader = n.cfg.Self
	}
	n.cfg.Metrics.notPrimaryHit()
	return &NotPrimaryError{Leader: leader}
}

// Close stops the node: senders exit, peer connections close, pending
// waiters fail. The node stops responding to Tick; its RPC handlers keep
// answering status (registered on a server the caller owns) but refuse
// votes and appends.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.failWaitersLocked(ErrClosed)
	n.mu.Unlock()
	close(n.stopRun)
	if n.wal != nil {
		n.wal.Close()
	}
	for _, p := range n.peers {
		p.mu.Lock()
		if p.cli != nil {
			p.cli.Close()
			p.cli = nil
		}
		p.mu.Unlock()
	}
	n.wg.Wait()
	return nil
}
