package coordinator

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"pricesheriff/internal/ha"
	"pricesheriff/internal/obs"
)

// Replicated command kinds. Every mutation a primary coordinator accepts
// is encoded as one of these and shipped down the ha log; standbys apply
// them to shadow the primary's control-plane state (the in-flight check
// table, the vantage-server registry, the PPC panel, the whitelist).
// Measurement-server heartbeats are deliberately NOT replicated: they
// are soft state that regenerates within one heartbeat interval, and at
// promotion the new primary grants every restored server a grace period
// instead (see AttachHA).
const (
	CmdJobNew    = "job_new"
	CmdJobDone   = "job_done"
	CmdJobMove   = "job_move"
	CmdPeerAdd   = "peer_add"
	CmdPeerDel   = "peer_del"
	CmdServerAdd = "server_add"
	CmdWLAdd     = "wl_add"
	// CmdRingUpdate replicates the store data plane's shard ring: losing
	// it across a failover would strand the sharded corpus, so a ring
	// change is only acknowledged once a quorum has logged it.
	CmdRingUpdate = "ring_update"
)

// jobRecord is the wire form of a replicated job.
type jobRecord struct {
	ID        string     `json:"id"`
	Domain    string     `json:"domain"`
	Server    string     `json:"server"`
	Initiator string     `json:"initiator"`
	PPCs      []PeerInfo `json:"ppcs,omitempty"`
}

// jobMove re-points a requeued job at its new server.
type jobMove struct {
	ID     string `json:"id"`
	Server string `json:"server"`
}

type addrRecord struct {
	Addr string `json:"addr"`
}

type idRecord struct {
	ID string `json:"id"`
}

type domainRecord struct {
	Domain string `json:"domain"`
}

// mustCmd marshals a payload into an ha command; the payload types above
// cannot fail to marshal.
func mustCmd(kind string, payload any) ha.Command {
	raw, err := json.Marshal(payload)
	if err != nil {
		panic(fmt.Sprintf("coordinator: marshal %s command: %v", kind, err))
	}
	return ha.Command{Kind: kind, Data: raw}
}

// replicaSM applies committed coordinator commands on a standby (and
// replays them into a freshly promoted or demoted node). It runs under
// the ha node's lock and never calls back into the node.
type replicaSM struct {
	c   *Coordinator
	log *obs.Logger
}

// NewStateMachine builds the ha.StateMachine mirroring c. Wire it into
// ha.Config.SM on every replica.
func NewStateMachine(c *Coordinator, log *obs.Logger) ha.StateMachine {
	return &replicaSM{c: c, log: log}
}

func (s *replicaSM) Apply(e ha.Entry) {
	switch e.Cmd.Kind {
	case ha.CmdNoop:
	case CmdJobNew:
		var r jobRecord
		if json.Unmarshal(e.Cmd.Data, &r) == nil {
			s.c.RestoreJob(Job{ID: r.ID, Domain: r.Domain, ServerAddr: r.Server,
				Initiator: r.Initiator, PPCs: r.PPCs})
		}
	case CmdJobDone:
		var r idRecord
		if json.Unmarshal(e.Cmd.Data, &r) == nil {
			s.c.RestoreDone(r.ID)
		}
	case CmdJobMove:
		var r jobMove
		if json.Unmarshal(e.Cmd.Data, &r) == nil {
			s.c.RestoreMove(r.ID, r.Server)
		}
	case CmdPeerAdd:
		var info PeerInfo
		if json.Unmarshal(e.Cmd.Data, &info) == nil {
			s.c.RestorePeer(info)
		}
	case CmdPeerDel:
		var r idRecord
		if json.Unmarshal(e.Cmd.Data, &r) == nil {
			s.c.UnregisterPeer(r.ID)
		}
	case CmdServerAdd:
		var r addrRecord
		if json.Unmarshal(e.Cmd.Data, &r) == nil {
			s.c.Servers.Register(r.Addr)
		}
	case CmdWLAdd:
		var r domainRecord
		if json.Unmarshal(e.Cmd.Data, &r) == nil {
			s.c.Whitelist.Add(r.Domain)
		}
	case CmdRingUpdate:
		var r RingState
		if json.Unmarshal(e.Cmd.Data, &r) == nil {
			s.c.RestoreRing(r.Version, r.Ring)
		}
	default:
		s.log.Warn(context.Background(), "coordinator: unknown replicated command",
			"kind", e.Cmd.Kind, "index", e.Index)
	}
}

func (s *replicaSM) Reset() { s.c.ResetReplicated() }

// AttachHA binds a replication node to this coordinator server: mutating
// RPC methods are gated on the primary lease (standbys answer NotPrimary
// with a redirect hint), accepted jobs are replicated with quorum
// acknowledgement before the client sees the job ID, and the node's
// promotion hook re-keys job IDs by term, grants restored servers a
// heartbeat grace period, and requeues in-flight checks off servers that
// stay silent. Call before Serve.
func (s *Server) AttachHA(node *ha.Node) {
	s.ha = node
	node.Register(s.rpc)
}

// HANode returns the attached replication node (nil without HA).
func (s *Server) HANode() *ha.Node { return s.ha }

// OnPromote is the coordinator side of a promotion, wired into
// ha.Config.OnPromote. It runs after the log has been applied and before
// the primary gate opens: job IDs become term-qualified so two primaries
// can never mint the same ID, and every replicated vantage server is
// treated as freshly heartbeated so the reaper requeues only servers
// that stay silent through a real timeout — not every server whose soft
// state was simply not replicated.
func (c *Coordinator) OnPromote(term uint64) {
	c.SetJobIDPrefix(fmt.Sprintf("t%d-", term))
	c.Servers.TouchAll()
	c.Log.Warn(context.Background(), "coordinator: promoted to primary",
		"term", term, "pending_jobs", c.PendingJobs())
}

// replicateWait ships a command and blocks for quorum commit.
func (s *Server) replicateWait(ctx context.Context, kind string, payload any) error {
	if s.ha == nil {
		return nil
	}
	return s.ha.AppendWait(ctx, mustCmd(kind, payload))
}

// replicate ships a command without waiting for commit — for soft or
// self-healing bookkeeping where blocking the caller buys nothing.
func (s *Server) replicate(kind string, payload any) {
	if s.ha == nil {
		return
	}
	if err := s.ha.Append(mustCmd(kind, payload)); err != nil {
		s.C.Log.Warn(context.Background(), "coordinator: replicate", "kind", kind, "err", err.Error())
	}
}

// gate refuses mutating calls on a replica that does not hold the
// primary lease, carrying the believed primary as the redirect hint.
func (s *Server) gate() error {
	if s.ha == nil || s.ha.IsPrimary() {
		return nil
	}
	return s.ha.NotPrimary()
}

// ReplicateRequeues re-points requeued jobs on the standbys. Called by
// the reaper wrapper below after RequeueLapsed moved jobs.
func (s *Server) replicateRequeues(moves []jobMove) {
	for _, m := range moves {
		s.replicate(CmdJobMove, m)
	}
}

// StartHAReaper is the HA-aware variant of Coordinator.StartReaper: the
// sweep only runs while this replica holds the lease (a standby's view
// of heartbeats is cold), and every move is replicated so a later
// failover does not resurrect the old assignment.
func (s *Server) StartHAReaper(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(interval) // lint:allow background reaper, not a request path
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if s.ha != nil && !s.ha.IsPrimary() {
					continue
				}
				moves := s.C.requeueLapsedMoves()
				s.replicateRequeues(moves)
			}
		}
	}()
	var stopped bool
	return func() {
		if !stopped {
			stopped = true
			close(done)
		}
	}
}
