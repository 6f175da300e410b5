package coordinator

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"pricesheriff/internal/ha"
	"pricesheriff/internal/retry"
	"pricesheriff/internal/transport"
)

// Wire shapes of the Coordinator protocol.
type (
	// NewJobReq is step 1 of the price-check protocol.
	// NewJobReq is step 1 of the price-check protocol. Key names the
	// question the check asks (see Coordinator.ScheduleCheck; empty: always
	// a fresh job) and Fresh forbids attaching to an earlier answer.
	NewJobReq struct {
		Domain      string `json:"domain"`
		InitiatorID string `json:"initiator_id"`
		Key         string `json:"key,omitempty"`
		Fresh       bool   `json:"fresh,omitempty"`
	}
	// NewJobResp carries the job ID and the selected Measurement server.
	// Source is empty for a fresh job; SourceCoalesced or SourceCached tell
	// the caller to attach to JobID instead of submitting it, AgeMS being
	// how long ago a cached job finished.
	NewJobResp struct {
		JobID      string `json:"job_id"`
		ServerAddr string `json:"server_addr"`
		Source     string `json:"source,omitempty"`
		AgeMS      int64  `json:"age_ms,omitempty"`
	}
	// RegisterPeerReq announces a PPC coming online.
	RegisterPeerReq struct {
		ID string `json:"id"`
		IP string `json:"ip"`
	}
	// HeartbeatReq is a Measurement server liveness report. Shedding
	// carries the server's admission state so the scheduler can route new
	// jobs around an overloaded server (omitted on the wire when false,
	// keeping old reports parseable).
	HeartbeatReq struct {
		Addr     string `json:"addr"`
		Pending  int    `json:"pending"`
		Shedding bool   `json:"shedding,omitempty"`
	}
	// JobRef names a job.
	JobRef struct {
		JobID string `json:"job_id"`
	}
	// TokenReq redeems a doppelganger bearer token.
	TokenReq struct {
		Token string `json:"token"`
	}
	// RegisterServerReq attaches a Measurement server.
	RegisterServerReq struct {
		Addr string `json:"addr"`
	}
	// WhitelistAddReq sanctions an e-commerce domain at runtime.
	WhitelistAddReq struct {
		Domain string `json:"domain"`
	}
	// RingState carries the store data plane's shard ring: a version and
	// the opaque encoded ring (the coordinator replicates it through the
	// ha log without interpreting it; core and the shard package do).
	RingState struct {
		Version int64           `json:"version"`
		Ring    json.RawMessage `json:"ring"`
	}
)

// Server exposes a Coordinator over the fabric. With an attached ha.Node
// (AttachHA) the mutating methods are primary-gated and every accepted
// mutation is replicated to the standbys before — for job creation — or
// alongside — for bookkeeping — the reply.
type Server struct {
	C   *Coordinator
	rpc *transport.Server
	ha  *ha.Node
}

// NewServer wraps the coordinator; call Serve to start.
func NewServer(c *Coordinator, lis transport.Listener) *Server {
	s := &Server{C: c, rpc: transport.NewServer(lis)}
	s.rpc.SetProc("coordinator")
	transport.HandleTyped(s.rpc, "coord.newjob", func(ctx context.Context, req *NewJobReq) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.gate(); err != nil {
			return nil, err
		}
		p, job, err := c.schedule(ctx, req.Domain, req.InitiatorID, req.Key, req.Fresh)
		if err != nil {
			return nil, err
		}
		if job == nil {
			// Attached to a job this primary already acknowledged: nothing
			// was minted, so there is nothing to replicate.
			resp := &NewJobResp{JobID: p.JobID, ServerAddr: p.ServerAddr, Source: p.Source}
			if p.Source == SourceCached {
				resp.AgeMS = time.Since(p.DoneAt).Milliseconds()
			}
			return resp, nil
		}
		// The job ID only reaches the client once a quorum has the job on
		// its log: whoever wins the next election will know about it, so an
		// acked check can never be silently lost. If replication fails the
		// job is rolled back and the client's retry lands on the successor.
		if err := s.replicateWait(ctx, CmdJobNew, jobRecord{
			ID: job.ID, Domain: job.Domain, Server: job.ServerAddr,
			Initiator: job.Initiator, PPCs: job.PPCs,
		}); err != nil {
			c.DropJob(job.ID)
			return nil, err
		}
		return &NewJobResp{JobID: job.ID, ServerAddr: job.ServerAddr}, nil
	})
	transport.HandleTyped(s.rpc, "coord.job_ppcs", func(ctx context.Context, req *JobRef) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.gate(); err != nil {
			return nil, err
		}
		ppcs, err := c.JobPPCs(req.JobID)
		if err != nil {
			return nil, err
		}
		if ppcs == nil {
			ppcs = []PeerInfo{}
		}
		return (*PeerList)(&ppcs), nil
	})
	transport.HandleTyped(s.rpc, "coord.jobdone", func(ctx context.Context, req *JobRef) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.gate(); err != nil {
			return nil, err
		}
		if err := c.JobDone(req.JobID); err != nil {
			return nil, err
		}
		// Completion is safe to replicate asynchronously: replaying a lost
		// job_done at worst re-runs one finished check, never loses one.
		s.replicate(CmdJobDone, idRecord{ID: req.JobID})
		return nil, nil
	})
	transport.HandleTyped(s.rpc, "coord.dropjob", func(ctx context.Context, req *JobRef) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.gate(); err != nil {
			return nil, err
		}
		c.DropJob(req.JobID)
		// A standby holds no verdict index: for it a dropped job is a
		// finished one, and a lost drop heals the same way a lost
		// job_done does.
		s.replicate(CmdJobDone, idRecord{ID: req.JobID})
		return nil, nil
	})
	s.rpc.HandleCtx("coord.register_peer", func(ctx context.Context, raw json.RawMessage) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.gate(); err != nil {
			return nil, err
		}
		var req RegisterPeerReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		info, err := c.RegisterPeer(req.ID, req.IP)
		if err != nil {
			return nil, err
		}
		s.replicate(CmdPeerAdd, info)
		return info, nil
	})
	s.rpc.HandleCtx("coord.unregister_peer", func(ctx context.Context, raw json.RawMessage) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.gate(); err != nil {
			return nil, err
		}
		var req RegisterPeerReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		c.UnregisterPeer(req.ID)
		s.replicate(CmdPeerDel, idRecord{ID: req.ID})
		return nil, nil
	})
	s.rpc.HandleCtx("coord.register_server", func(ctx context.Context, raw json.RawMessage) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.gate(); err != nil {
			return nil, err
		}
		var req RegisterServerReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		c.Servers.Register(req.Addr)
		s.replicate(CmdServerAdd, addrRecord{Addr: req.Addr})
		return nil, nil
	})
	s.rpc.HandleCtx("coord.whitelist_add", func(ctx context.Context, raw json.RawMessage) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.gate(); err != nil {
			return nil, err
		}
		var req WhitelistAddReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		c.Whitelist.Add(req.Domain)
		s.replicate(CmdWLAdd, domainRecord{Domain: req.Domain})
		return nil, nil
	})
	transport.HandleTyped(s.rpc, "coord.heartbeat", func(ctx context.Context, req *HeartbeatReq) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.gate(); err != nil {
			return nil, err
		}
		return nil, c.Servers.HeartbeatState(req.Addr, req.Pending, req.Shedding)
	})
	s.rpc.HandleCtx("coord.dopp_state", func(ctx context.Context, raw json.RawMessage) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var req TokenReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		return c.DoppelgangerState(req.Token)
	})
	s.rpc.HandleCtx("coord.servers", func(ctx context.Context, _ json.RawMessage) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return c.Servers.Snapshot(), nil
	})
	s.rpc.HandleCtx("coord.peers", func(ctx context.Context, _ json.RawMessage) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return c.Peers(), nil
	})
	transport.HandleTyped(s.rpc, "coord.ring_set", func(ctx context.Context, req *RingState) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.gate(); err != nil {
			return nil, err
		}
		cur, _ := c.Ring()
		if req.Version <= cur {
			return nil, fmt.Errorf("coordinator: stale ring v%d (have v%d)", req.Version, cur)
		}
		// Quorum first: a ring change the log could forget must not be
		// acknowledged to the data plane.
		if err := s.replicateWait(ctx, CmdRingUpdate, req); err != nil {
			return nil, err
		}
		c.RestoreRing(req.Version, req.Ring)
		return nil, nil
	})
	s.rpc.HandleCtx("coord.ring_get", func(ctx context.Context, _ json.RawMessage) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ver, raw := c.Ring()
		return &RingState{Version: ver, Ring: raw}, nil
	})
	return s
}

// Addr returns the dialable address.
func (s *Server) Addr() string { return s.rpc.Addr() }

// Serve blocks accepting connections.
func (s *Server) Serve() error { return s.rpc.Serve() }

// Close stops the server.
func (s *Server) Close() error { return s.rpc.Close() }

// rpcConn is the slice of client behaviour the Coordinator client needs;
// satisfied by a single *transport.Client and by *transport.Cluster.
type rpcConn interface {
	CallCtx(ctx context.Context, method string, req, resp any) error
	Close() error
}

// Client is a typed client of the Coordinator protocol.
type Client struct {
	rpc rpcConn
}

// DialCoordinator connects a client to a single coordinator replica.
func DialCoordinator(netw transport.Network, addr string) (*Client, error) {
	rpc, err := transport.DialClient(netw, addr)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: rpc}, nil
}

// DialCoordinatorCluster connects a partition-tolerant client to a
// replicated coordinator: calls stick to the current primary, follow
// NotPrimary redirect hints after a failover, and rotate past dead
// replicas under the given retry policy.
func DialCoordinatorCluster(netw transport.Network, addrs []string, pol retry.Policy, seed int64) (*Client, error) {
	cl, err := transport.DialCluster(netw, addrs, pol, seed)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: cl}, nil
}

// NewJobCtx requests a price-check job (step 1).
func (cl *Client) NewJobCtx(ctx context.Context, domain, initiatorID string) (NewJobResp, error) {
	var resp NewJobResp
	err := cl.rpc.CallCtx(ctx, "coord.newjob", &NewJobReq{Domain: domain, InitiatorID: initiatorID}, &resp)
	return resp, err
}

// ScheduleCheck is NewJobCtx for a check that names its question: the
// answer is a fresh job to submit, or a placement on the job already
// answering it (Coordinator.ScheduleCheck over the wire).
func (cl *Client) ScheduleCheck(ctx context.Context, domain, initiatorID, key string, fresh bool) (Placement, error) {
	var resp NewJobResp
	req := &NewJobReq{Domain: domain, InitiatorID: initiatorID, Key: key, Fresh: fresh}
	if err := cl.rpc.CallCtx(ctx, "coord.newjob", req, &resp); err != nil {
		return Placement{}, err
	}
	p := Placement{JobID: resp.JobID, ServerAddr: resp.ServerAddr, Source: resp.Source}
	switch p.Source {
	case "":
		p.Source = SourceFanout
	case SourceCached:
		// Clocks differ between hosts: the age crosses the wire, not the time.
		p.DoneAt = time.Now().Add(-time.Duration(resp.AgeMS) * time.Millisecond)
	}
	return p, nil
}

// JobPPCsCtx fetches the PPC list for a job (step 1.1, pulled by the
// server).
func (cl *Client) JobPPCsCtx(ctx context.Context, jobID string) ([]PeerInfo, error) {
	var ppcs []PeerInfo
	err := cl.rpc.CallCtx(ctx, "coord.job_ppcs", &JobRef{JobID: jobID}, (*PeerList)(&ppcs))
	return ppcs, err
}

// JobDoneCtx reports completion (step 4).
func (cl *Client) JobDoneCtx(ctx context.Context, jobID string) error {
	return cl.rpc.CallCtx(ctx, "coord.jobdone", &JobRef{JobID: jobID}, nil)
}

// DropJob releases a job nobody will run — its Measurement server refused
// the check — so no later check attaches to it (Coordinator.DropJob over
// the wire). The submitter may already be gone, so the call rides its own
// short deadline. It is best effort: a drop that does not arrive leaves
// one phantom pending job behind.
func (cl *Client) DropJob(jobID string) {
	ctx, cancel := context.WithTimeout(context.Background(), dropJobBudget)
	defer cancel()
	cl.rpc.CallCtx(ctx, "coord.dropjob", &JobRef{JobID: jobID}, nil)
}

// dropJobBudget bounds DropJob's round trip.
const dropJobBudget = 2 * time.Second

// RegisterPeer announces a PPC.
func (cl *Client) RegisterPeer(id, ip string) (PeerInfo, error) {
	var info PeerInfo
	err := cl.rpc.CallCtx(context.Background(), "coord.register_peer", RegisterPeerReq{ID: id, IP: ip}, &info)
	return info, err
}

// UnregisterPeer removes a PPC.
func (cl *Client) UnregisterPeer(id string) error {
	return cl.rpc.CallCtx(context.Background(), "coord.unregister_peer", RegisterPeerReq{ID: id}, nil)
}

// RegisterServer attaches a Measurement server.
func (cl *Client) RegisterServer(addr string) error {
	return cl.rpc.CallCtx(context.Background(), "coord.register_server", RegisterServerReq{Addr: addr}, nil)
}

// WhitelistAdd sanctions an e-commerce domain at runtime.
func (cl *Client) WhitelistAdd(domain string) error {
	return cl.rpc.CallCtx(context.Background(), "coord.whitelist_add", WhitelistAddReq{Domain: domain}, nil)
}

// HeartbeatCtx reports liveness, pending count, and admission state.
func (cl *Client) HeartbeatCtx(ctx context.Context, addr string, pending int, shedding bool) error {
	return cl.rpc.CallCtx(ctx, "coord.heartbeat", &HeartbeatReq{Addr: addr, Pending: pending, Shedding: shedding}, nil)
}

// DoppelgangerState redeems a bearer token for client-side state.
func (cl *Client) DoppelgangerState(token string) (map[string]string, error) {
	var state map[string]string
	err := cl.rpc.CallCtx(context.Background(), "coord.dopp_state", TokenReq{Token: token}, &state)
	return state, err
}

// Servers fetches the monitoring panel rows.
func (cl *Client) Servers() ([]ServerInfo, error) {
	var out []ServerInfo
	err := cl.rpc.CallCtx(context.Background(), "coord.servers", nil, &out)
	return out, err
}

// Peers fetches the peer monitoring panel rows.
func (cl *Client) Peers() ([]PeerInfo, error) {
	var out []PeerInfo
	err := cl.rpc.CallCtx(context.Background(), "coord.peers", nil, &out)
	return out, err
}

// SetRing publishes a new shard-ring epoch. The call succeeds only
// after a quorum of coordinator replicas has logged the update, so a
// failover cannot roll the data plane's placement back.
func (cl *Client) SetRing(ctx context.Context, version int64, ring []byte) error {
	return cl.rpc.CallCtx(ctx, "coord.ring_set", &RingState{Version: version, Ring: ring}, nil)
}

// Ring fetches the replicated shard-ring state; version 0 means no ring
// was ever published.
func (cl *Client) Ring(ctx context.Context) (int64, []byte, error) {
	var out RingState
	if err := cl.rpc.CallCtx(ctx, "coord.ring_get", nil, &out); err != nil {
		return 0, nil, err
	}
	return out.Version, out.Ring, nil
}

// Close releases the connection.
func (cl *Client) Close() error { return cl.rpc.Close() }
