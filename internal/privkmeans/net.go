package privkmeans

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
	"runtime"

	"pricesheriff/internal/cluster"
	"pricesheriff/internal/elgamal"
	"pricesheriff/internal/transport"
)

// The networked form of the protocol: the Coordinator and the Aggregator
// are separate processes in separate administrative domains (the paper
// envisions an NGO or data-protection authority operating the Aggregator,
// Sect. 3.7). Clients talk only to the Aggregator; the Aggregator runs
// the inner-product protocol against the Coordinator's RPC endpoint; the
// centroid update ships homomorphic aggregates back. No cleartext profile
// ever crosses either wire.

// Wire shapes.
type (
	submitReq struct {
		ClientID   string              `json:"client_id"`
		Ciphertext *elgamal.Ciphertext `json:"ciphertext"`
	}
	gammasReq struct {
		Ciphertext *elgamal.Ciphertext `json:"ciphertext"`
	}
	gammasResp struct {
		Gammas []string `json:"gammas"` // hex group elements
	}
	updateReq struct {
		Aggs   []*elgamal.Ciphertext `json:"aggs"` // nil entries allowed
		Counts []int                 `json:"counts"`
	}
	initReq struct {
		K    int   `json:"k"`
		Seed int64 `json:"seed"`
	}
	assignReq struct {
		ClientID string `json:"client_id"`
	}
	assignResp struct {
		Cluster int  `json:"cluster"`
		Known   bool `json:"known"`
	}
	iterateReq struct {
		Threads int `json:"threads"`
	}
	iterateResp struct {
		Changed int   `json:"changed"`
		TotalD2 int64 `json:"total_d2"`
	}
)

// CoordinatorServer exposes a Coordinator over the fabric.
type CoordinatorServer struct {
	Co  *Coordinator
	rpc *transport.Server
}

// NewCoordinatorServer wraps a coordinator; call Serve to start.
func NewCoordinatorServer(co *Coordinator, lis transport.Listener) *CoordinatorServer {
	s := &CoordinatorServer{Co: co, rpc: transport.NewServer(lis)}
	s.rpc.Handle("pkm.pubkey", func(json.RawMessage) (any, error) {
		return co.PublicKey(), nil
	})
	s.rpc.Handle("pkm.init", func(raw json.RawMessage) (any, error) {
		var req initReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		if req.K < 1 {
			return nil, errors.New("privkmeans: k must be positive")
		}
		co.InitCentroids(mrand.New(mrand.NewSource(req.Seed)), req.K)
		return nil, nil
	})
	s.rpc.Handle("pkm.gammas", func(raw json.RawMessage) (any, error) {
		var req gammasReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		if req.Ciphertext == nil {
			return nil, errors.New("privkmeans: missing ciphertext")
		}
		gammas, err := co.DistanceGammas(req.Ciphertext)
		if err != nil {
			return nil, err
		}
		out := gammasResp{Gammas: make([]string, len(gammas))}
		for i, g := range gammas {
			out.Gammas[i] = g.Text(16)
		}
		return out, nil
	})
	s.rpc.Handle("pkm.update", func(raw json.RawMessage) (any, error) {
		var req updateReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		return nil, co.UpdateCentroids(req.Aggs, req.Counts)
	})
	s.rpc.Handle("pkm.centroids", func(json.RawMessage) (any, error) {
		return co.Centroids(), nil
	})
	return s
}

// Addr returns the dialable address.
func (s *CoordinatorServer) Addr() string { return s.rpc.Addr() }

// Serve blocks accepting connections.
func (s *CoordinatorServer) Serve() error { return s.rpc.Serve() }

// Close stops the server.
func (s *CoordinatorServer) Close() error { return s.rpc.Close() }

// RemoteCoordinator is the Aggregator's client of a CoordinatorServer; it
// implements DistanceEvaluator.
type RemoteCoordinator struct {
	pool *transport.Pool
}

// DialCoordinatorServer connects with a pool sized for the mapping phase's
// parallelism.
func DialCoordinatorServer(netw transport.Network, addr string, poolSize int) (*RemoteCoordinator, error) {
	pool, err := transport.NewPool(netw, addr, poolSize)
	if err != nil {
		return nil, err
	}
	return &RemoteCoordinator{pool: pool}, nil
}

// PublicKey fetches the Coordinator's encryption key (what a client add-on
// downloads before encrypting its profile).
func (rc *RemoteCoordinator) PublicKey() (*elgamal.PublicKey, error) {
	var pk elgamal.PublicKey
	if err := rc.pool.CallCtx(context.TODO(), "pkm.pubkey", nil, &pk); err != nil {
		return nil, err
	}
	return &pk, nil
}

// Init asks the Coordinator to seed k centroids.
func (rc *RemoteCoordinator) Init(k int, seed int64) error {
	return rc.pool.CallCtx(context.TODO(), "pkm.init", initReq{K: k, Seed: seed}, nil)
}

// DistanceGammas implements DistanceEvaluator over the wire.
func (rc *RemoteCoordinator) DistanceGammas(ct *elgamal.Ciphertext) ([]*big.Int, error) {
	var resp gammasResp
	if err := rc.pool.CallCtx(context.TODO(), "pkm.gammas", gammasReq{Ciphertext: ct}, &resp); err != nil {
		return nil, err
	}
	out := make([]*big.Int, len(resp.Gammas))
	for i, s := range resp.Gammas {
		v, ok := new(big.Int).SetString(s, 16)
		if !ok {
			return nil, fmt.Errorf("privkmeans: bad gamma %d", i)
		}
		out[i] = v
	}
	return out, nil
}

// Update ships the homomorphic cluster aggregates for the centroid update.
func (rc *RemoteCoordinator) Update(aggs []*elgamal.Ciphertext, counts []int) error {
	return rc.pool.CallCtx(context.TODO(), "pkm.update", updateReq{Aggs: aggs, Counts: counts}, nil)
}

// Centroids fetches the doppelganger profiles after convergence.
func (rc *RemoteCoordinator) Centroids() ([]cluster.Point, error) {
	var out []cluster.Point
	err := rc.pool.CallCtx(context.TODO(), "pkm.centroids", nil, &out)
	return out, err
}

// Close releases the pool.
func (rc *RemoteCoordinator) Close() error { return rc.pool.Close() }

// AggregatorServer exposes an Aggregator to clients (profile submission,
// assignment lookup) and to the protocol driver (iterate).
type AggregatorServer struct {
	Ag *Aggregator
	// K is the cluster count used by ClusterAggregates during iterate.
	K       int
	Coord   *RemoteCoordinator
	Threads int

	rpc *transport.Server
}

// NewAggregatorServer wraps an aggregator; call Serve to start. threads
// follows the Config.Threads convention: <= 0 means one mapping worker per
// available CPU.
func NewAggregatorServer(ag *Aggregator, coord *RemoteCoordinator, k, threads int, lis transport.Listener) *AggregatorServer {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	s := &AggregatorServer{Ag: ag, K: k, Coord: coord, Threads: threads, rpc: transport.NewServer(lis)}
	s.rpc.Handle("pkm.submit", func(raw json.RawMessage) (any, error) {
		var req submitReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		if req.ClientID == "" || req.Ciphertext == nil {
			return nil, errors.New("privkmeans: client id and ciphertext required")
		}
		ag.Submit(req.ClientID, req.Ciphertext)
		return nil, nil
	})
	s.rpc.Handle("pkm.assignment", func(raw json.RawMessage) (any, error) {
		var req assignReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		clusterID, ok := ag.Assignment(req.ClientID)
		return assignResp{Cluster: clusterID, Known: ok}, nil
	})
	s.rpc.Handle("pkm.iterate", func(raw json.RawMessage) (any, error) {
		var req iterateReq
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, err
		}
		threads := req.Threads
		if threads < 1 {
			threads = s.Threads
		}
		changed, d2, err := ag.MapClients(coord, threads)
		if err != nil {
			return nil, err
		}
		aggs, counts, err := ag.ClusterAggregates(s.K)
		if err != nil {
			return nil, err
		}
		if err := coord.Update(aggs, counts); err != nil {
			return nil, err
		}
		return iterateResp{Changed: changed, TotalD2: d2}, nil
	})
	return s
}

// Addr returns the dialable address.
func (s *AggregatorServer) Addr() string { return s.rpc.Addr() }

// Serve blocks accepting connections.
func (s *AggregatorServer) Serve() error { return s.rpc.Serve() }

// Close stops the server.
func (s *AggregatorServer) Close() error { return s.rpc.Close() }

// AggregatorClient is what a browser add-on (or the protocol driver) uses
// against an AggregatorServer.
type AggregatorClient struct {
	rpc *transport.Client
}

// DialAggregator connects a client.
func DialAggregator(netw transport.Network, addr string) (*AggregatorClient, error) {
	rpc, err := transport.DialClient(netw, addr)
	if err != nil {
		return nil, err
	}
	return &AggregatorClient{rpc: rpc}, nil
}

// Submit uploads an encrypted profile; the client can then go offline.
func (c *AggregatorClient) Submit(clientID string, ct *elgamal.Ciphertext) error {
	return c.rpc.CallCtx(context.TODO(), "pkm.submit", submitReq{ClientID: clientID, Ciphertext: ct}, nil)
}

// Assignment returns the client's cluster (the doppelganger lookup).
func (c *AggregatorClient) Assignment(clientID string) (int, bool, error) {
	var resp assignResp
	if err := c.rpc.CallCtx(context.TODO(), "pkm.assignment", assignReq{ClientID: clientID}, &resp); err != nil {
		return 0, false, err
	}
	return resp.Cluster, resp.Known, nil
}

// Iterate runs one mapping+update round, returning how many clients moved.
func (c *AggregatorClient) Iterate(threads int) (int, int64, error) {
	var resp iterateResp
	if err := c.rpc.CallCtx(context.TODO(), "pkm.iterate", iterateReq{Threads: threads}, &resp); err != nil {
		return 0, 0, err
	}
	return resp.Changed, resp.TotalD2, nil
}

// Close releases the connection.
func (c *AggregatorClient) Close() error { return c.rpc.Close() }
