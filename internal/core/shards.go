package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/measurement"
	"pricesheriff/internal/retry"
	"pricesheriff/internal/shard"
	"pricesheriff/internal/store"
)

// extraShard is one RAM-only store engine beyond the durable shard-0.
type extraShard struct {
	member shard.Member
	db     *store.DB
	srv    *store.Server
}

// ordinalsTable lives on shard-0 (ordinal 0) and gains one row per engine
// the plane has ever been given: the sequence half of the row's ID is
// that engine's ordinal. With a data dir the table rides shard-0's WAL,
// so a restart goes on issuing where the last incarnation stopped and
// the rows that incarnation's engines minted — the ones that migrated
// onto shard-0 are still there — never meet a second minter.
var ordinalsTable = store.TableSpec{Name: "shard_ordinals"}

// newExtraShard boots one more store engine and server on the fabric,
// under a name that is its position in this incarnation's plane (so the
// ring places keys the same way after a restart) and a fresh ordinal.
// Callers hold shardMu (or run during single-threaded boot).
func (s *System) newExtraShard() (*extraShard, error) {
	id := fmt.Sprintf("shard-%d", s.shardSeq)
	rowID, err := s.coreDB.Insert(ordinalsTable.Name, store.Row{"shard": id})
	if err != nil {
		return nil, fmt.Errorf("core: issue shard ordinal: %w", err)
	}
	ordinal := int(store.Seq(rowID))
	db, err := store.NewPlaneDB(ordinal, store.Options{})
	if err != nil {
		return nil, err
	}
	lis, err := s.fabric.Listen("")
	if err != nil {
		return nil, err
	}
	measurement.RegisterStandardProcs(db)
	srv := store.NewServer(db, lis)
	srv.Metrics = s.dbSrv.Metrics
	go srv.Serve()
	es := &extraShard{member: shard.Member{ID: id, Addr: srv.Addr(), Ordinal: ordinal}, db: db, srv: srv}
	s.shardSeq++
	return es, nil
}

// AddStoreShard grows the data plane by one shard: a fresh engine joins
// the ring, every router of the fleet opens a handoff window, and the
// moved key ranges stream over while live writes land on both owners
// underneath. The new ring is published through the coordinator (and,
// under HA, the replication log) once the cutover commits.
func (s *System) AddStoreShard() (*shard.RebalanceReport, error) {
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	es, err := s.newExtraShard()
	if err != nil {
		return nil, err
	}
	next := s.ring.Add(es.member)
	rep, err := shard.FleetRebalance(s.baseCtx, s.routers, next)
	if err != nil {
		es.srv.Close()
		return nil, fmt.Errorf("core: add store shard: %w", err)
	}
	s.ring = next
	s.extraShards[es.member.ID] = es
	s.publishRing(next)
	s.log.Info(s.baseCtx, "core: store shard added", "shard", es.member.ID,
		"shards", len(next.Members), "keys_moved", rep.KeysMoved)
	return rep, nil
}

// RemoveStoreShard retires the most recently added extra shard, draining
// its key ranges back onto the survivors before its engine is torn down.
// Shard-0 — the durable home of the unsharded tables — never retires.
func (s *System) RemoveStoreShard() (*shard.RebalanceReport, error) {
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	var victim *extraShard
	for _, es := range s.extraShards {
		if victim == nil || es.member.Ordinal > victim.member.Ordinal { // ordinals only grow
			victim = es
		}
	}
	if victim == nil {
		return nil, fmt.Errorf("core: no extra store shard to remove")
	}
	next := s.ring.Remove(victim.member.ID)
	rep, err := shard.FleetRebalance(s.baseCtx, s.routers, next)
	if err != nil {
		return nil, fmt.Errorf("core: remove store shard: %w", err)
	}
	s.ring = next
	delete(s.extraShards, victim.member.ID)
	victim.srv.Close()
	s.publishRing(next)
	s.log.Info(s.baseCtx, "core: store shard removed", "shard", victim.member.ID,
		"shards", len(next.Members), "keys_moved", rep.KeysMoved)
	return rep, nil
}

// publishRing records a committed ring epoch in the coordinator's
// control plane. Under HA the write goes through the cluster so a
// quorum logs it before it counts; a standby losing the publish only
// loses visibility, never data, so failures are logged and tolerated.
// Callers hold shardMu.
func (s *System) publishRing(ring *shard.Ring) {
	raw := ring.Encode()
	if s.haNode == nil {
		s.Coord.RestoreRing(ring.Version, raw)
		return
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, 30*time.Second)
	defer cancel()
	cl, err := coordinator.DialCoordinatorCluster(s.fabric, s.haPeers, retry.Policy{}, ring.Version)
	if err == nil {
		err = cl.SetRing(ctx, ring.Version, raw)
		cl.Close()
	}
	if err != nil {
		s.log.Warn(ctx, "core: publish shard ring", "version", ring.Version, "err", err.Error())
	}
}

// StoreShards returns the current width of the data plane.
func (s *System) StoreShards() int {
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	return len(s.ring.Members)
}

// ShardRing returns the committed placement epoch.
func (s *System) ShardRing() *shard.Ring { return s.routers[0].Ring() }

// ShardRouter returns the system's own router over the data plane.
// Its op counters see only watch and history traffic; for the whole
// fleet's load use FleetOps.
func (s *System) ShardRouter() *shard.Router { return s.routers[0] }

// FleetOps returns routed store operations summed across every router
// of the fleet — the system's own plus one per measurement server. The
// measurement routers carry the dominant write path (price-check
// inserts), so this, not any single router, is the scaler's load signal.
func (s *System) FleetOps() int64 {
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	var n int64
	for _, r := range s.routers {
		n += r.OpsTotal()
	}
	return n
}

// fleetOpsByShard sums per-shard routed op counts over every router.
func (s *System) fleetOpsByShard() map[string]int64 {
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	out := make(map[string]int64)
	for _, r := range s.routers {
		for id, n := range r.OpsByShard() {
			out[id] += n
		}
	}
	return out
}

// ShardStatus snapshots ring membership, key-space shares, per-shard
// routed ops and row counts — the /shards surface. Ops are merged
// across the fleet's routers.
func (s *System) ShardStatus(ctx context.Context) (*shard.Status, error) {
	st, err := s.routers[0].Status(ctx)
	if err != nil {
		return nil, err
	}
	ops := s.fleetOpsByShard()
	for i := range st.Shards {
		st.Shards[i].Ops = ops[st.Shards[i].ID]
	}
	return st, nil
}

// ShardScaler extends the paper's elastic policy (Sects. 3.4 and 5) to
// the storage tier: when the measurement pool scales out, the single
// database becomes the next bottleneck, so the scaler watches the
// routed-operation rate per shard and grows or shrinks the ring.
type ShardScaler struct {
	System *System
	// GrowOpsPerShard: mean routed store ops per shard per tick above
	// which a shard is added (default 512).
	GrowOpsPerShard int64
	// ShrinkOpsPerShard: per-shard rate below which the newest extra
	// shard retires (default 32).
	ShrinkOpsPerShard int64
	// MaxShards caps the ring (default 8); MinShards floors it (default 1).
	MaxShards int
	MinShards int
	// Cooldown is the minimum time between ring changes (default 2s) —
	// a rebalance settling should not immediately trigger the next.
	Cooldown time.Duration

	mu        sync.Mutex
	lastOps   int64
	lastScale time.Time
	grown     int
	shrunk    int
	done      chan struct{}
	once      sync.Once
}

// NewShardScaler builds a scaler with defaults.
func NewShardScaler(sys *System) *ShardScaler {
	return &ShardScaler{
		System:            sys,
		GrowOpsPerShard:   512,
		ShrinkOpsPerShard: 32,
		MaxShards:         8,
		MinShards:         1,
		Cooldown:          2 * time.Second,
		done:              make(chan struct{}),
	}
}

// Tick evaluates the policy once, returning "grow", "shrink" or "".
func (a *ShardScaler) Tick() (string, error) {
	ops := a.System.FleetOps()
	shards := len(a.System.ShardRing().Members)

	a.mu.Lock()
	delta := ops - a.lastOps
	a.lastOps = ops
	cooling := time.Since(a.lastScale) < a.Cooldown
	a.mu.Unlock()
	if cooling || shards == 0 {
		return "", nil
	}
	perShard := delta / int64(shards)

	switch {
	case perShard >= a.GrowOpsPerShard && shards < a.MaxShards:
		if _, err := a.System.AddStoreShard(); err != nil {
			return "", err
		}
		a.mu.Lock()
		a.lastScale = time.Now()
		a.grown++
		a.mu.Unlock()
		return "grow", nil
	case perShard < a.ShrinkOpsPerShard && shards > a.MinShards:
		if _, err := a.System.RemoveStoreShard(); err != nil {
			return "", err
		}
		a.mu.Lock()
		a.lastScale = time.Now()
		a.shrunk++
		a.mu.Unlock()
		return "shrink", nil
	}
	return "", nil
}

// Scaled returns how many grow and shrink operations the scaler ran.
func (a *ShardScaler) Scaled() (grown, shrunk int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.grown, a.shrunk
}

// Run evaluates the policy every interval until Stop.
func (a *ShardScaler) Run(interval time.Duration) {
	ticker := time.NewTicker(interval) // lint:allow background scaler, not a request path
	defer ticker.Stop()
	for {
		select {
		case <-a.done:
			return
		case <-ticker.C:
			a.Tick()
		}
	}
}

// Stop halts a running scaler.
func (a *ShardScaler) Stop() {
	a.once.Do(func() { close(a.done) })
}
