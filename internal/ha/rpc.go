package ha

import (
	"context"
	"encoding/json"
	"errors"
	"time"

	"pricesheriff/internal/transport"
)

// Wire types for the replication protocol. The methods ride the
// coordinator's existing RPC server (Register), so a replica exposes one
// listener for both the data plane and the control plane.

// VoteReq solicits a vote for Candidate in Term. LastIndex/LastTerm
// describe the candidate's log so voters can refuse out-of-date logs.
type VoteReq struct {
	Term      uint64 `json:"term"`
	Candidate string `json:"candidate"`
	LastIndex uint64 `json:"last_index"`
	LastTerm  uint64 `json:"last_term"`
}

// VoteResp answers a vote solicitation; Term lets a stale candidate
// catch up.
type VoteResp struct {
	Term    uint64 `json:"term"`
	Granted bool   `json:"granted"`
}

// AppendReq replicates entries (or, with none, asserts the leader's
// heartbeat). PrevIndex/PrevTerm anchor the log-matching check; Commit
// is the leader's commit index.
type AppendReq struct {
	Term      uint64  `json:"term"`
	Leader    string  `json:"leader"`
	PrevIndex uint64  `json:"prev_index"`
	PrevTerm  uint64  `json:"prev_term"`
	Entries   []Entry `json:"entries,omitempty"`
	Commit    uint64  `json:"commit"`
}

// AppendResp reports the follower's view: Ok means the prefix matched
// and the entries were stored; LastIndex is the follower's log length,
// used to resynchronize nextIndex after a rejection.
type AppendResp struct {
	Term      uint64 `json:"term"`
	Ok        bool   `json:"ok"`
	LastIndex uint64 `json:"last_index"`
}

// PeerStatus is the primary's replication view of one standby.
type PeerStatus struct {
	Addr    string    `json:"addr"`
	Match   uint64    `json:"match"`
	Lag     uint64    `json:"lag"`
	LastAck time.Time `json:"last_ack,omitempty"`
}

// Status is one replica's self-description, served on ha.status and the
// admin UI's /cluster.json.
type Status struct {
	Self          string        `json:"self"`
	State         string        `json:"state"`
	Term          uint64        `json:"term"`
	Leader        string        `json:"leader,omitempty"`
	LastIndex     uint64        `json:"last_index"`
	Commit        uint64        `json:"commit"`
	Applied       uint64        `json:"applied"`
	Peers         []PeerStatus  `json:"peers,omitempty"`
	Failovers     int64         `json:"failovers"`
	LastFailover  *FailoverInfo `json:"last_failover,omitempty"`
	PromotedTerms []uint64      `json:"promoted_terms,omitempty"`
}

// RPC method names.
const (
	MethodVote   = "ha.vote"
	MethodAppend = "ha.append"
	MethodStatus = "ha.status"
)

// Register exposes the node's protocol handlers on an RPC server
// (normally the coordinator's own server).
func (n *Node) Register(srv *transport.Server) {
	transport.HandleTyped(srv, MethodVote, func(_ context.Context, req *VoteReq) (any, error) {
		return n.handleVote(req), nil
	})
	transport.HandleTyped(srv, MethodAppend, func(_ context.Context, req *AppendReq) (any, error) {
		return n.handleAppend(req)
	})
	srv.HandleCtx(MethodStatus, func(context.Context, json.RawMessage) (any, error) {
		return n.StatusSnapshot(), nil
	})
}

// StatusSnapshot captures the replica's current protocol state.
func (n *Node) StatusSnapshot() *Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := &Status{
		Self:          n.cfg.Self,
		State:         n.state.String(),
		Term:          n.term,
		Leader:        n.leader,
		LastIndex:     uint64(len(n.log)),
		Commit:        n.commit,
		Applied:       n.applied,
		Failovers:     n.failovers,
		LastFailover:  n.lastFailover,
		PromotedTerms: append([]uint64(nil), n.promotedTerms...),
	}
	if n.state == Primary {
		last := uint64(len(n.log))
		for _, addr := range n.cfg.Peers {
			p, ok := n.peers[addr]
			if !ok {
				continue
			}
			p.mu.Lock()
			ps := PeerStatus{Addr: addr, Match: p.match, LastAck: p.lastAck}
			p.mu.Unlock()
			if last > ps.Match {
				ps.Lag = last - ps.Match
			}
			st.Peers = append(st.Peers, ps)
		}
	}
	return st
}

// handleVote answers one vote solicitation: refuse stale terms and
// out-of-date logs, grant at most one vote per term (persisted), and
// treat a granted vote as leader activity for the election timer.
func (n *Node) handleVote(req *VoteReq) *VoteResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || req.Term < n.term {
		return &VoteResp{Term: n.term}
	}
	if req.Term > n.term {
		// Adopting the term must not restart a standby's election timer:
		// only a granted vote (below) or a leader's append does. Otherwise
		// a candidate whose log is behind — whom nobody may vote for —
		// keeps every up-to-date standby from ever standing, by asking
		// again each time its own, shorter, timeout fires.
		heard, standby := n.lastHeard, n.state != Primary
		n.stepDownLocked(req.Term, "", "vote request carried a higher term")
		if standby {
			n.lastHeard = heard
		}
	}
	lastIdx, lastTerm := n.lastLocked()
	upToDate := req.LastTerm > lastTerm ||
		(req.LastTerm == lastTerm && req.LastIndex >= lastIdx)
	if (n.votedFor == "" || n.votedFor == req.Candidate) && upToDate && n.state != Primary {
		prev := n.votedFor
		n.votedFor = req.Candidate
		if err := n.persistLocked(); err != nil {
			n.votedFor = prev
			n.cfg.Log.Error(context.Background(), "ha: vote refused: not persisted", "err", err)
			return &VoteResp{Term: n.term}
		}
		n.lastHeard = n.cfg.Now()
		return &VoteResp{Term: n.term, Granted: true}
	}
	return &VoteResp{Term: n.term}
}

// handleAppend answers one replication/heartbeat frame: defer to any
// leader of the current or newer term, verify the log-matching anchor,
// truncate a divergent tail, store the entries, and advance commit. An
// entry the durable log refused is dropped again and the frame answered
// with the error: the leader counts no acknowledgement for it and
// resends on its next round.
func (n *Node) handleAppend(req *AppendReq) (*AppendResp, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || req.Term < n.term {
		return &AppendResp{Term: n.term, LastIndex: uint64(len(n.log))}, nil
	}
	if req.Term > n.term || n.state != Follower || n.leader != req.Leader {
		n.stepDownLocked(req.Term, req.Leader, "append from current leader")
	}
	n.leader = req.Leader
	n.lastHeard = n.cfg.Now()
	// Log-matching: the entry before the batch must agree on its term.
	if req.PrevIndex > uint64(len(n.log)) ||
		(req.PrevIndex > 0 && n.log[req.PrevIndex-1].Term != req.PrevTerm) {
		return &AppendResp{Term: n.term, LastIndex: uint64(len(n.log))}, nil
	}
	for _, e := range req.Entries {
		if e.Index <= uint64(len(n.log)) {
			if n.log[e.Index-1].Term == e.Term {
				continue // already have it
			}
			// Divergent tail from a dead leader: discard it. Committed
			// entries never diverge, so applied state is unaffected.
			n.log = n.log[:e.Index-1]
		}
		n.log = append(n.log, e)
		if err := n.walAppendLocked(e); err != nil {
			n.log = n.log[:e.Index-1]
			n.cfg.Metrics.setLastIndex(uint64(len(n.log)))
			n.cfg.Log.Error(context.Background(), "ha: append not acknowledged", "index", e.Index, "err", err)
			return nil, err
		}
	}
	last := uint64(len(n.log))
	n.cfg.Metrics.setLastIndex(last)
	if req.Commit > n.commit {
		c := req.Commit
		if c > last {
			c = last
		}
		if c > n.commit {
			n.commit = c
			n.cfg.Metrics.setCommit(n.commit)
			n.applyRangeLocked(n.applied+1, n.commit)
			n.applied = n.commit
		}
	}
	return &AppendResp{Term: n.term, Ok: true, LastIndex: last}, nil
}

// peerLoop is the per-standby sender: it sleeps until nudged (new
// entries, heartbeat tick, promotion) and then pushes the peer's share
// of the log. All protocol timing lives in Tick; this loop is purely
// reactive, so virtual-time tests stay deterministic.
func (n *Node) peerLoop(p *peerState) {
	defer n.wg.Done()
	for {
		select {
		case <-n.stopRun:
			return
		case <-p.nudge:
		}
		n.syncPeer(p)
	}
}

// syncPeer sends one append round (possibly several batches) to a peer.
func (n *Node) syncPeer(p *peerState) {
	p.mu.Lock()
	if p.inflight {
		p.mu.Unlock()
		return
	}
	p.inflight = true
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.inflight = false
		p.mu.Unlock()
	}()
	const maxBatch = 256
	for {
		n.mu.Lock()
		if n.closed || n.state != Primary {
			n.mu.Unlock()
			return
		}
		p.mu.Lock()
		next := p.nextIndex
		p.mu.Unlock()
		if next == 0 {
			next = 1
		}
		req := &AppendReq{
			Term:      n.term,
			Leader:    n.cfg.Self,
			PrevIndex: next - 1,
			Commit:    n.commit,
		}
		if req.PrevIndex > 0 && req.PrevIndex <= uint64(len(n.log)) {
			req.PrevTerm = n.log[req.PrevIndex-1].Term
		}
		last := uint64(len(n.log))
		for i := next; i <= last && len(req.Entries) < maxBatch; i++ {
			req.Entries = append(req.Entries, n.log[i-1])
		}
		n.mu.Unlock()

		var resp AppendResp
		if err := n.call(p, MethodAppend, req, &resp); err != nil {
			return // dead or partitioned peer: retry on the next nudge
		}
		n.mu.Lock()
		if resp.Term > n.term {
			n.stepDownLocked(resp.Term, "", "append response carried a higher term")
			n.mu.Unlock()
			return
		}
		stillPrimary := n.state == Primary && n.term == req.Term
		n.mu.Unlock()
		if !stillPrimary {
			return
		}
		now := n.cfg.Now()
		if !resp.Ok {
			// Prefix mismatch: resynchronize from the follower's log end
			// (never past it, never below 1) and try again.
			p.mu.Lock()
			p.lastAck = now
			nn := resp.LastIndex + 1
			if nn >= next && next > 1 {
				nn = next - 1
			}
			if nn < 1 {
				nn = 1
			}
			p.nextIndex = nn
			p.mu.Unlock()
			continue
		}
		sent := req.PrevIndex + uint64(len(req.Entries))
		p.mu.Lock()
		p.lastAck = now
		if sent > p.match {
			p.match = sent
		}
		p.nextIndex = p.match + 1
		match := p.match
		p.mu.Unlock()
		n.mu.Lock()
		n.advanceCommitLocked()
		lag := uint64(0)
		if l := uint64(len(n.log)); l > match {
			lag = l - match
		}
		n.cfg.Metrics.setPeerLag(p.addr, lag)
		done := match >= uint64(len(n.log))
		n.mu.Unlock()
		if done {
			return
		}
	}
}

// call issues one RPC to a peer, dialing (or re-dialing) its connection
// as needed and breaking it on failure so the next call starts fresh.
func (n *Node) call(p *peerState, method string, req, resp any) error {
	p.mu.Lock()
	cli := p.cli
	p.mu.Unlock()
	if cli == nil {
		c, err := transport.DialClient(n.cfg.Fabric, p.addr)
		if err != nil {
			return err
		}
		p.mu.Lock()
		if p.cli == nil {
			p.cli = c
			cli = c
		} else { // lost a dial race
			cli = p.cli
			c.Close()
		}
		p.mu.Unlock()
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
	err := cli.CallCtx(ctx, method, req, resp)
	cancel()
	if err != nil && !transport.IsRemote(err) && !errors.Is(err, context.DeadlineExceeded) {
		cli.Close()
		p.mu.Lock()
		if p.cli == cli {
			p.cli = nil
		}
		p.mu.Unlock()
	}
	return err
}

// FetchStatus asks any replica for its Status; used by sheriffctl and
// tests.
func FetchStatus(ctx context.Context, netw transport.Network, addr string) (*Status, error) {
	cli, err := transport.DialClient(netw, addr)
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	var st Status
	if err := cli.CallCtx(ctx, MethodStatus, struct{}{}, &st); err != nil {
		return nil, err
	}
	return &st, nil
}
