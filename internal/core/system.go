// Package core wires the Price $heriff's seven components — browser
// add-ons, Coordinator, Measurement servers, Database server, the network
// of Infrastructure and Peer Proxy Clients, the Aggregator, and the
// doppelganger fleet — into one runnable system (paper Fig. 1), and
// implements the five-step price check request protocol of Sect. 3.2.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pricesheriff/internal/admit"
	"pricesheriff/internal/browser"
	"pricesheriff/internal/cluster"
	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/currency"
	"pricesheriff/internal/doppelganger"
	"pricesheriff/internal/ha"
	"pricesheriff/internal/history"
	"pricesheriff/internal/htmlx"
	"pricesheriff/internal/measurement"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/peer"
	"pricesheriff/internal/privkmeans"
	"pricesheriff/internal/retry"
	"pricesheriff/internal/shard"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/store"
	"pricesheriff/internal/store/diskengine"
	"pricesheriff/internal/transport"
)

// DiskTables names the tables Config.StoreEngine "disk" spills to the
// LSM engine: the longitudinal, append-mostly cold data whose volume
// grows with deployment age — exactly what must not be bounded by RAM.
func DiskTables() []string {
	return []string{
		history.PointsTable.Name,
		history.WatchesTable.Name,
		history.WatchRunsTable.Name,
		history.WatchVerdictsTable.Name,
		measurement.ResponsesTable.Name,
	}
}

// Config sizes a System. Zero values choose sensible defaults; the zero
// Config boots a small world on the in-process fabric.
type Config struct {
	// Fabric carries all control traffic; default is a fresh in-process
	// network. Use transport.TCP{} for a real-socket deployment.
	Fabric transport.Network
	// Mall is the e-commerce world; default is a small synthetic mall.
	Mall *shop.Mall
	// MeasurementServers is the initial pool size (default 2).
	MeasurementServers int
	// IPCCountries places the infrastructure fleet (default: the paper's
	// 30-node layout).
	IPCCountries []string
	// MaxPPCs caps peers per request (default 5; the paper averaged ≈3).
	MaxPPCs int
	// PPCTimeout kills slow proxy requests (paper: 2 minutes; tests use
	// shorter). Default 2 minutes.
	PPCTimeout time.Duration
	// HeartbeatTimeout marks silent measurement servers offline
	// (default 10s).
	HeartbeatTimeout time.Duration
	// CheckDeadline bounds one whole price check; an expired check
	// completes with the rows it has (default 2 minutes).
	CheckDeadline time.Duration
	// VantageBudget bounds each vantage point's fetch including retries
	// (default: the check deadline).
	VantageBudget time.Duration
	// RetryPolicy drives per-vantage retries in the Measurement servers;
	// unset fields take the retry package defaults (3 attempts under
	// jittered exponential backoff).
	RetryPolicy retry.Policy
	// Seed drives all deterministic randomness (IP allocation etc.).
	Seed int64
	// Metrics receives every component's telemetry; default is a fresh
	// registry (reachable via System.Metrics).
	Metrics *obs.Registry
	// Tracer records per-check span trees; default keeps the last 64
	// completed traces (reachable via System.Tracer).
	Tracer *obs.Tracer
	// Logger receives structured, trace-correlated log records from every
	// component; nil disables logging (the nil-safe obs.Logger idiom).
	Logger *obs.Logger

	// DataDir, when set, makes the database durable: a WAL plus periodic
	// checkpoints under this directory, recovered on the next boot. Empty
	// keeps the seed behaviour (RAM only, everything lost on restart).
	DataDir string
	// Fsync is the WAL flush policy (always/interval/off; default
	// interval). Only meaningful with DataDir.
	Fsync history.FsyncPolicy
	// WALSegmentBytes sizes WAL segments (default 4 MiB).
	WALSegmentBytes int64
	// StoreEngine places the cold longitudinal tables (history_points,
	// watches, watch_runs, watch_verdicts, responses): "mem" (default)
	// keeps the seed behaviour of everything in RAM maps; "disk" spills
	// them to the LSM engine under DataDir/engine, bounding resident
	// memory by the hot working set instead of by history volume.
	// "disk" requires DataDir (the WAL is the engine's redo log). Hot
	// tables (requests, in-flight state) stay in memory either way.
	StoreEngine string
	// PageCacheMB sizes the block cache shared by every disk-resident
	// table (default 32). Only meaningful with StoreEngine "disk".
	PageCacheMB int
	// AutoCompactSegments folds cold WAL segments into a checkpoint when
	// the segment count reaches this (default 8; <0 disables).
	AutoCompactSegments int
	// WatchInterval is the recurring-check period of the watch scheduler
	// (default 1 minute).
	WatchInterval time.Duration
	// WatchGranularity is the scheduler's tick (default WatchInterval/20).
	WatchGranularity time.Duration
	// WatchThresholds tune the longitudinal PD verdicts; zero fields take
	// the history package defaults.
	WatchThresholds history.Thresholds

	// BaseContext is the root context of every internally initiated
	// operation: the watch scheduler's recurring checks derive from it, so
	// canceling it — e.g. from a SIGINT handler — aborts in-flight checks
	// cleanly.
	// Default context.Background().
	BaseContext context.Context
	// MaxInflightChecks bounds concurrently running checks per Measurement
	// server: past the cap submissions queue FIFO, and ones whose deadline
	// cannot clear the queue are shed with admit.ErrOverload. 0 means
	// DefaultMaxInflightChecks; negative disables admission control.
	MaxInflightChecks int

	// StoreShards sets the initial width of the sharded store data plane
	// (default 1, the seed's single database). Shard 0 is the durable
	// engine behind DataDir; extra shards are RAM-only engines reached
	// through the consistent-hash router. The plane can also grow and
	// shrink live via AddStoreShard/RemoveStoreShard.
	StoreShards int
	// ShardVNodes is the ring's virtual-node count per shard (default
	// shard.DefaultVNodes).
	ShardVNodes int

	// HAPeers, when set, replicates the coordinator control plane: this
	// system's coordinator listens on HASelf, joins the HAPeers replica
	// set (every replica's coordinator address, HASelf included), elects
	// a primary by lease over heartbeats, and log-replicates job and
	// registry state to the standbys. Measurement servers then dial the
	// whole cluster and fail over with the primary. Empty keeps the seed
	// behaviour: one coordinator, no failover.
	HAPeers []string
	// HASelf is this replica's coordinator address; it must appear in
	// HAPeers and be listenable on the fabric (a fixed host:port for
	// transport.TCP, any name for the in-process fabric).
	HASelf string
	// HAHeartbeatInterval is the primary's replication heartbeat cadence
	// (default 250ms).
	HAHeartbeatInterval time.Duration
	// HALeaseTimeout bounds failover: a standby promotes after this long
	// without hearing the primary (default 8× heartbeat).
	HALeaseTimeout time.Duration
	// HADir, when set, persists this replica's term and vote so a
	// crash-and-restart cannot vote twice in one term. Empty keeps them
	// in memory.
	HADir string
}

// DefaultMaxInflightChecks is the per-server admission cap when
// Config.MaxInflightChecks is zero.
const DefaultMaxInflightChecks = 64

// System is a running Price $heriff deployment.
type System struct {
	Mall  *shop.Mall
	Coord *coordinator.Coordinator
	// PIIBlacklist refuses price checks on profile/account pages
	// (Sect. 2.3); initialized with the default patterns.
	PIIBlacklist *coordinator.PIIBlacklist

	fabric   transport.Network
	shopSrv  *shop.Server
	dbSrv    *store.Server
	db       store.Conn // the system router over the shard ring
	coordSrv *coordinator.Server
	haNode   *ha.Node
	haPeers  []string
	broker   *peer.Broker

	measRPC  []*measurement.RPCServer
	meas     []*measurement.Server
	stopBeat []func()

	// addon runs every check this system issues, the watch scheduler's
	// included.
	addon *Addon

	// Fault-tolerance settings shared by every measurement server,
	// including ones attached later via AddMeasurementServer.
	checkDeadline time.Duration
	vantageBudget time.Duration
	retrier       *retry.Retrier
	ppcTimeout    time.Duration
	maxInflight   int // per-server admission cap; <0 disables
	parseCache    *htmlx.Cache
	stopReaper    func()

	baseCtx context.Context

	dopps     *doppelganger.Manager
	directory *systemDirectory

	// Durability + longitudinal measurement (PR 4). coreDB is the engine
	// behind dbSrv, written to directly for history points; persister is
	// nil without a DataDir.
	coreDB      *store.DB
	persister   *history.Persister
	histMetrics *history.Metrics
	history     *history.Index
	watcher     *history.Scheduler

	// Sharded store data plane (PR 9). shard-0 is the durable coreDB
	// behind dbSrv; extra shards are RAM-only engines. routers[0] is the
	// system router (also s.db); every measurement server appends its
	// own, and ring changes fleet-rebalance all of them under shardMu.
	shardMu      sync.Mutex
	ring         *shard.Ring
	routers      []*shard.Router
	extraShards  map[string]*extraShard
	shardSeq     int // next shard name suffix
	shardMetrics *shard.Metrics

	metrics     *obs.Registry
	tracer      *obs.Tracer
	log         *obs.Logger // base logger tagged comp=core
	logBase     *obs.Logger // untagged root, re-tagged per component
	obs         *coreMetrics
	peerMetrics *peer.Metrics
	measMetrics *measurement.Metrics

	rng *rand.Rand

	mu    sync.Mutex
	users map[string]*User
	day   float64
}

// User is one registered $heriff user: a browser with the add-on, acting
// as initiator and PPC.
type User struct {
	ID      string
	Country string
	City    string
	Browser *browser.Browser
	Node    *peer.Node
	// DonatesHistory marks users who opted in to share domain-level
	// browsing history (459 of 1265 in the deployment).
	DonatesHistory bool
}

// NewSystem boots every component.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Fabric == nil {
		cfg.Fabric = transport.NewInproc()
	}
	if cfg.Mall == nil {
		cfg.Mall = shop.NewMall(shop.MallConfig{Seed: cfg.Seed, NumDomains: 60, NumLocationPD: 20, NumAlexa: 10})
	}
	if cfg.MeasurementServers <= 0 {
		cfg.MeasurementServers = 2
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 10 * time.Second
	}
	if cfg.PPCTimeout <= 0 {
		cfg.PPCTimeout = 2 * time.Minute
	}
	if cfg.MaxPPCs <= 0 {
		cfg.MaxPPCs = 5
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(0)
	}
	if cfg.Tracer.Abandoned == nil {
		// Leaked (never-finished) traces force-closed by the tracer's
		// TTL/cap sweep are worth an alert: they mean a check path lost
		// its Finish.
		cfg.Tracer.Abandoned = cfg.Metrics.Counter("sheriff_obs_traces_abandoned_total")
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	if cfg.MaxInflightChecks == 0 {
		cfg.MaxInflightChecks = DefaultMaxInflightChecks
	}
	// Attach frame/byte accounting to the fabric if the caller didn't.
	switch f := cfg.Fabric.(type) {
	case transport.TCP:
		if f.Metrics == nil {
			f.Metrics = transport.NewMetrics(cfg.Metrics, "tcp")
			cfg.Fabric = f
		}
	case *transport.Inproc:
		if f.Metrics == nil {
			f.Metrics = transport.NewMetrics(cfg.Metrics, "inproc")
		}
	}

	s := &System{
		Mall:         cfg.Mall,
		PIIBlacklist: coordinator.NewPIIBlacklist(nil),
		fabric:       cfg.Fabric,
		metrics:      cfg.Metrics,
		tracer:       cfg.Tracer,
		log:          cfg.Logger.With("comp", "core"),
		logBase:      cfg.Logger,
		obs:          newCoreMetrics(cfg.Metrics),
		peerMetrics:  peer.NewMetrics(cfg.Metrics),
		measMetrics:  measurement.NewMetrics(cfg.Metrics),
		rng:          rand.New(rand.NewSource(cfg.Seed + 1)),
		users:        make(map[string]*User),

		checkDeadline: cfg.CheckDeadline,
		vantageBudget: cfg.VantageBudget,
		retrier:       retry.New(cfg.RetryPolicy, cfg.Seed+3),
		ppcTimeout:    cfg.PPCTimeout,
		maxInflight:   cfg.MaxInflightChecks,
		baseCtx:       cfg.BaseContext,
		// One cache for the whole measurement pool: vantage copies of a
		// shop template hit it regardless of which server drew the job.
		parseCache: htmlx.NewCache(0, 0),
	}

	// The web: shops behind one server.
	shopLis, err := cfg.Fabric.Listen("")
	if err != nil {
		return nil, err
	}
	s.shopSrv = shop.NewServer(cfg.Mall, shopLis)
	go s.shopSrv.Serve()

	// The Database server (Sect. 3.1.1: single shared DB on its own node).
	dbLis, err := cfg.Fabric.Listen("")
	if err != nil {
		return nil, err
	}
	var storeOpts store.Options
	switch cfg.StoreEngine {
	case "", store.EngineMem:
	case store.EngineDisk:
		if cfg.DataDir == "" {
			return nil, fmt.Errorf("core: store engine %q requires a data dir (the WAL is its redo log)", cfg.StoreEngine)
		}
		cacheMB := cfg.PageCacheMB
		if cacheMB <= 0 {
			cacheMB = 32
		}
		storeOpts = store.Options{
			DiskTables: DiskTables(),
			DiskFactory: diskengine.NewFactory(diskengine.Options{
				Dir:        filepath.Join(cfg.DataDir, "engine"),
				CacheBytes: int64(cacheMB) << 20,
				Fsync:      cfg.Fsync != history.FsyncOff,
				Metrics:    cfg.Metrics,
			}),
		}
	default:
		return nil, fmt.Errorf("core: unknown store engine %q", cfg.StoreEngine)
	}
	// Shard-0 is ordinal 0 of the plane; every later engine draws its
	// ordinal from ordinalsTable below.
	coreDB, err := store.NewPlaneDB(0, storeOpts)
	if err != nil {
		return nil, err
	}
	s.coreDB = coreDB
	s.histMetrics = history.NewMetrics(cfg.Metrics)
	if cfg.DataDir != "" {
		// Recover the previous incarnation's state into the fresh engine
		// and hook its commit stream into the WAL — before the store
		// server takes its first request.
		auto := cfg.AutoCompactSegments
		if auto == 0 {
			auto = 8
		} else if auto < 0 {
			auto = 0
		}
		s.persister, err = history.Open(cfg.DataDir, coreDB, history.Options{
			WAL: history.WALOptions{
				Fsync:        cfg.Fsync,
				SegmentBytes: cfg.WALSegmentBytes,
			},
			AutoCompactSegments: auto,
			Metrics:             s.histMetrics,
		})
		if err != nil {
			return nil, fmt.Errorf("core: open data dir: %w", err)
		}
	}
	if err := coreDB.CreateTable(ordinalsTable); err != nil && !errors.Is(err, store.ErrTableExists) {
		return nil, err
	}
	measurement.RegisterStandardProcs(coreDB)
	s.dbSrv = store.NewServer(coreDB, dbLis)
	s.dbSrv.Metrics = store.NewMetrics(cfg.Metrics)
	go s.dbSrv.Serve()

	// The sharded data plane: shard-0 is the durable engine above; extra
	// shards (Config.StoreShards) are RAM-only. All access goes through
	// consistent-hash routers keyed by (URL, country).
	s.shardMetrics = shard.NewMetrics(cfg.Metrics)
	s.extraShards = make(map[string]*extraShard)
	members := []shard.Member{{ID: "shard-0", Addr: s.dbSrv.Addr()}}
	if cfg.StoreShards <= 0 {
		cfg.StoreShards = 1
	}
	s.shardSeq = 1
	for i := 1; i < cfg.StoreShards; i++ {
		es, err := s.newExtraShard()
		if err != nil {
			return nil, err
		}
		s.extraShards[es.member.ID] = es
		members = append(members, es.member)
	}
	s.ring = shard.NewRing(cfg.Seed+7, cfg.ShardVNodes, members)
	sysRouter, err := shard.NewRouter(cfg.Fabric, s.ring, shard.Options{PoolSize: 4, Metrics: s.shardMetrics})
	if err != nil {
		return nil, err
	}
	s.routers = []*shard.Router{sysRouter}
	s.db = sysRouter
	if err := measurement.EnsureTables(s.db); err != nil {
		return nil, err
	}

	// The P2P relay broker.
	brokerLis, err := cfg.Fabric.Listen("")
	if err != nil {
		return nil, err
	}
	s.broker = peer.NewBroker(brokerLis)
	s.broker.Metrics = s.peerMetrics
	s.broker.Log = cfg.Logger.With("comp", "broker")
	go s.broker.Serve()

	// The Coordinator, whitelisting exactly the mall's domains.
	coordMetrics := coordinator.NewMetrics(cfg.Metrics)
	servers := coordinator.NewServerList(cfg.HeartbeatTimeout, coordinator.LeastPending, nil)
	servers.Metrics = coordMetrics
	wl := coordinator.NewWhitelist(cfg.Mall.Domains())
	s.Coord = coordinator.New(servers, wl, cfg.Mall.World)
	s.Coord.Metrics = coordMetrics
	s.Coord.Log = cfg.Logger.With("comp", "coordinator")
	s.Coord.MaxPPCs = cfg.MaxPPCs
	// The boot ring is derived from config, so every HA replica computes
	// the same one; runtime ring changes replicate through the log.
	s.Coord.RestoreRing(s.ring.Version, s.ring.Encode())
	coordLis, err := cfg.Fabric.Listen(cfg.HASelf) // "" without HA: ephemeral
	if err != nil {
		return nil, err
	}
	s.coordSrv = coordinator.NewServer(s.Coord, coordLis)
	if len(cfg.HAPeers) > 0 {
		// The control-plane node shares the coordinator's listener: data
		// and replication RPCs ride one address, so HAPeers doubles as the
		// client-visible replica set. Registration must precede Serve.
		node, err := ha.NewNode(ha.Config{
			Self:              cfg.HASelf,
			Peers:             cfg.HAPeers,
			Fabric:            cfg.Fabric,
			HeartbeatInterval: cfg.HAHeartbeatInterval,
			LeaseTimeout:      cfg.HALeaseTimeout,
			Dir:               cfg.HADir,
			Seed:              cfg.Seed + 5,
			SM:                coordinator.NewStateMachine(s.Coord, cfg.Logger.With("comp", "ha")),
			OnPromote:         s.Coord.OnPromote,
			Metrics:           ha.NewMetrics(cfg.Metrics),
			Log:               cfg.Logger.With("comp", "ha"),
		})
		if err != nil {
			return nil, fmt.Errorf("core: ha node: %w", err)
		}
		s.haNode = node
		s.haPeers = append([]string(nil), cfg.HAPeers...)
		s.coordSrv.AttachHA(node)
	}
	go s.coordSrv.Serve()
	if s.haNode != nil {
		s.haNode.Start()
	}
	s.addon = &Addon{
		coord:     s.Coord,
		blacklist: s.PIIBlacklist,
		tracer:    cfg.Tracer,
		log:       s.log,
		obs:       s.obs,
		ms:        msPool{fabric: cfg.Fabric, obs: s.obs},
	}

	// The doppelganger directory exists from the start; it answers with
	// errors until TrainDoppelgangers runs, making nodes fall back to
	// clean profiles.
	s.directory = &systemDirectory{system: s}

	// Measurement servers share one IPC fleet (the paper's 30 nodes).
	fetcher, err := shop.DialFetcher(cfg.Fabric, s.shopSrv.Addr(), 8)
	if err != nil {
		return nil, err
	}
	fleet, err := measurement.NewIPCFleet(cfg.Mall.World, fetcher, cfg.IPCCountries, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.MeasurementServers; i++ {
		if err := s.addMeasurementServer(fleet, cfg.PPCTimeout, i); err != nil {
			return nil, err
		}
	}

	// The price-history index over recovered points, and the watch
	// scheduler re-running registered checks through the normal pipeline.
	if err := history.EnsureWatchTables(coreDB); err != nil {
		return nil, err
	}
	s.history = history.NewIndex(s.histMetrics)
	if err := s.history.Load(coreDB); err != nil {
		return nil, fmt.Errorf("core: rebuild history index: %w", err)
	}
	s.watcher, err = history.NewScheduler(coreDB, s.watchRunner, history.SchedulerOptions{
		Interval:    cfg.WatchInterval,
		Granularity: cfg.WatchGranularity,
		Thresholds:  cfg.WatchThresholds,
		Metrics:     s.histMetrics,
		Seed:        cfg.Seed + 4,
	})
	if err != nil {
		return nil, err
	}
	s.watcher.Start()

	// The reaper requeues jobs stranded on measurement servers whose
	// heartbeats lapse mid-check (Sect. 10.3 corrective measures). Under
	// HA the sweep runs only on the primary and replicates every requeue.
	if s.haNode != nil {
		s.stopReaper = s.coordSrv.StartHAReaper(cfg.HeartbeatTimeout)
	} else {
		s.stopReaper = s.Coord.StartReaper(cfg.HeartbeatTimeout)
	}
	return s, nil
}

// addMeasurementServer boots one server, registers it and starts
// heartbeats.
func (s *System) addMeasurementServer(fleet []*measurement.IPC, ppcTimeout time.Duration, idx int) error {
	// Under HA the server follows the whole cluster — it learns the
	// primary from redirects and fails over when the lease moves.
	var coordCli *coordinator.Client
	var err error
	if len(s.haPeers) > 0 {
		coordCli, err = coordinator.DialCoordinatorCluster(s.fabric, s.haPeers, retry.Policy{}, int64(idx))
	} else {
		coordCli, err = coordinator.DialCoordinator(s.fabric, s.coordSrv.Addr())
	}
	if err != nil {
		return err
	}
	// Each server routes the shard ring itself (the paper's "shared DB"
	// becomes a shared plane); shardMu serializes against ring changes so
	// a new router always joins at a committed epoch, windowless.
	s.shardMu.Lock()
	dbCli, err := shard.NewRouter(s.fabric, s.ring, shard.Options{PoolSize: 2, Metrics: s.shardMetrics})
	if err == nil {
		s.routers = append(s.routers, dbCli)
	}
	s.shardMu.Unlock()
	if err != nil {
		return err
	}
	requester, err := peer.NewRequester(s.fabric, s.broker.Addr(), fmt.Sprintf("ms-%d", idx), ppcTimeout)
	if err != nil {
		return err
	}
	ms := measurement.New("", nil)
	ms.Coord = coordCli
	ms.DB = dbCli
	ms.IPCs = fleet
	ms.Peers = requester
	ms.Metrics = s.measMetrics
	ms.Tracer = s.tracer
	ms.Log = s.logBase.With("comp", "measurement", "ms", fmt.Sprintf("ms-%d", idx))
	ms.CheckDeadline = s.checkDeadline
	ms.VantageBudget = s.vantageBudget
	ms.Retry = s.retrier
	ms.Cache = s.parseCache
	if s.maxInflight > 0 {
		label := fmt.Sprintf("ms-%d", idx)
		ms.Admit = admit.New(admit.Config{Limit: s.maxInflight}, admit.NewMetrics(s.metrics, label))
	}

	lis, err := s.fabric.Listen("")
	if err != nil {
		return err
	}
	rpc := measurement.NewRPCServer(ms, lis)
	go rpc.Serve()
	register := func() error {
		if err := coordCli.RegisterServer(ms.OwnAddr); err != nil {
			return err
		}
		return coordCli.HeartbeatCtx(s.baseCtx, ms.OwnAddr, 0, false)
	}
	if len(s.haPeers) > 0 {
		// At boot the replica set may still be electing its first primary
		// (or waiting for the other replica processes to come up at all):
		// keep registering until a leader takes the lease.
		ctx, cancel := context.WithTimeout(s.baseCtx, time.Minute)
		defer cancel()
		boot := retry.New(retry.Policy{
			MaxAttempts: 240, BaseDelay: 250 * time.Millisecond,
			MaxDelay: time.Second, Multiplier: 1,
		}, int64(idx))
		if _, err := boot.DoCtx(ctx, func(int) error { return register() }); err != nil {
			return err
		}
	} else if err := register(); err != nil {
		return err
	}
	stop := ms.StartHeartbeats(time.Second)

	s.mu.Lock()
	s.meas = append(s.meas, ms)
	s.measRPC = append(s.measRPC, rpc)
	s.stopBeat = append(s.stopBeat, stop)
	s.mu.Unlock()
	return nil
}

// AddMeasurementServer dynamically attaches one more server — the elastic
// scaling path used during traffic spikes (Sect. 3.4).
func (s *System) AddMeasurementServer() error {
	s.mu.Lock()
	idx := len(s.meas)
	var fleet []*measurement.IPC
	if idx > 0 {
		fleet = s.meas[0].IPCs
	}
	timeout := s.ppcTimeout
	s.mu.Unlock()
	return s.addMeasurementServer(fleet, timeout, idx)
}

// MeasurementServers returns the current pool size.
func (s *System) MeasurementServers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.meas)
}

// DB returns the shared database surface (for analysis over recorded
// data) — a consistent-hash router over the shard ring.
func (s *System) DB() store.Conn { return s.db }

// StoreEngine returns the in-process database engine behind the store
// server — the admin UI's snapshot endpoints stream straight from it
// rather than deep-copying over RPC.
func (s *System) StoreEngine() *store.DB { return s.coreDB }

// TablesStatus reports engine placement, row counts, and storage
// footprint for every table on every local shard (the durable shard-0
// plus RAM-only extra shards), ordered by shard then table. Each shard's
// report is a consistent snapshot (store.TableStats's read-lock contract).
func (s *System) TablesStatus() []store.TableStatus {
	type namedDB struct {
		id string
		db *store.DB
	}
	dbs := []namedDB{{"shard-0", s.coreDB}}
	s.shardMu.Lock()
	ids := make([]string, 0, len(s.extraShards))
	for id := range s.extraShards {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		dbs = append(dbs, namedDB{id, s.extraShards[id].db})
	}
	s.shardMu.Unlock()
	var out []store.TableStatus
	for _, nd := range dbs {
		for _, st := range nd.db.TableStats() {
			out = append(out, store.TableStatus{Shard: nd.id, TableStat: st})
		}
	}
	return out
}

// EngineCacheStats reports the disk engine's shared block-cache lifetime
// hit/miss totals (both zero while no table is disk-resident).
func (s *System) EngineCacheStats() (hits, misses int64) {
	return s.metrics.Counter("sheriff_engine_cache_hits_total").Value(),
		s.metrics.Counter("sheriff_engine_cache_misses_total").Value()
}

// History returns the longitudinal price-series index.
func (s *System) History() *history.Index { return s.history }

// Watches returns the recurring-check scheduler.
func (s *System) Watches() *history.Scheduler { return s.watcher }

// Persister returns the durability layer (nil without a DataDir).
func (s *System) Persister() *history.Persister { return s.persister }

// HANode returns this replica's control-plane node (nil in a
// single-coordinator deployment).
func (s *System) HANode() *ha.Node { return s.haNode }

// ShopAddr is the dialable address of the e-commerce world server.
func (s *System) ShopAddr() string { return s.shopSrv.Addr() }

// CoordAddr is the dialable address of the Coordinator.
func (s *System) CoordAddr() string { return s.coordSrv.Addr() }

// BrokerAddr is the dialable address of the P2P relay broker.
func (s *System) BrokerAddr() string { return s.broker.Addr() }

// DBAddr is the dialable address of the Database server.
func (s *System) DBAddr() string { return s.dbSrv.Addr() }

// Fabric returns the network fabric the system runs on.
func (s *System) Fabric() transport.Network { return s.fabric }

// Metrics returns the system-wide telemetry registry.
func (s *System) Metrics() *obs.Registry { return s.metrics }

// Tracer returns the per-check trace recorder.
func (s *System) Tracer() *obs.Tracer { return s.tracer }

// Day returns the current virtual day.
func (s *System) Day() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.day
}

// AdvanceDay moves the virtual clock forward.
func (s *System) AdvanceDay(d float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.day += d
}

// AddUser registers a user in a country (optionally a specific city),
// connects their add-on to the P2P network, and announces the PPC to the
// Coordinator.
func (s *System) AddUser(id, country, city string) (*User, error) {
	ip, ok := s.Mall.World.RandomIP(s.rng, country, city)
	if !ok {
		return nil, fmt.Errorf("core: no address space in %s/%s", country, city)
	}
	oses := []string{"windows", "mac", "linux"}
	browsers := []string{"chrome", "firefox", "safari"}
	b := browser.New(id, ip.String(), oses[s.rng.Intn(3)], browsers[s.rng.Intn(3)])

	fetcher, err := shop.DialFetcher(s.fabric, s.shopSrv.Addr(), 1)
	if err != nil {
		return nil, err
	}
	node, err := peer.Connect(s.fabric, s.broker.Addr(), id, b, fetcher, s.directory)
	if err != nil {
		return nil, err
	}
	node.Metrics = s.peerMetrics
	go node.Run()
	if _, err := s.Coord.RegisterPeer(id, ip.String()); err != nil {
		node.Close()
		return nil, err
	}

	u := &User{ID: id, Country: country, City: city, Browser: b, Node: node}
	s.mu.Lock()
	s.users[id] = u
	s.mu.Unlock()
	return u, nil
}

// RemoveUser disconnects a peer: the browser closes, the Coordinator
// forgets the PPC, and future price checks no longer route through it.
func (s *System) RemoveUser(id string) error {
	s.mu.Lock()
	u, ok := s.users[id]
	if ok {
		delete(s.users, id)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown user %q", id)
	}
	s.Coord.UnregisterPeer(id)
	return u.Node.Close()
}

// User returns a registered user.
func (s *System) User(id string) (*User, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.users[id]
	return u, ok
}

// Users returns all registered users.
func (s *System) Users() []*User {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*User, 0, len(s.users))
	for _, u := range s.users {
		out = append(out, u)
	}
	return out
}

// CheckResult is a completed price check.
type CheckResult struct {
	// JobID is the job whose vantage rows these are: the check's own for a
	// fan-out, the job it was attached to otherwise — the ID under which
	// the stored responses and price_spread read back what the user saw.
	JobID string
	// Server is the Measurement server holding that job's rows.
	Server   string
	URL      string
	Domain   string
	Currency string
	// Origin is "" for a user-submitted check, "watch" for one the
	// scheduler re-ran.
	Origin string
	// Source is how the vantage rows were obtained: coordinator.SourceFanout
	// (this check ran its own fan-out), SourceCoalesced (it joined an
	// identical check in flight) or SourceCached (it was answered from one
	// finished within the Coordinator's VerdictTTL). The "You" row is the
	// caller's own in every case.
	Source string
	// AsOf is when the vantage rows were complete: now for a fan-out and
	// for a coalesced check, the source job's completion for a cached one.
	AsOf time.Time
	Rows []measurement.ResultRow
}

// ErrNoPrice is returned when the initiator's page has no selectable price.
var ErrNoPrice = errors.New("core: no price element found on the product page")

// ErrPIIBlacklisted is returned for URLs that match the PII blacklist
// (account/profile pages, Sect. 2.3).
var ErrPIIBlacklisted = errors.New("core: URL matches the PII blacklist; refusing to fetch")

// PriceCheckContext runs the full five-step protocol for a user (see
// Addon.Check) in the EUR display currency: canceling ctx aborts the check
// end to end — the submit RPC, the server-side vantage fan-out (via an
// explicit cancel to the Measurement server), and the result wait. On
// early exit the partial rows gathered so far are returned alongside the
// error.
func (s *System) PriceCheckContext(ctx context.Context, userID, url string) (*CheckResult, error) {
	return s.PriceCheckCurrencyContext(ctx, userID, url, "EUR")
}

// PriceCheckCurrencyContext is PriceCheckContext with an explicit display
// currency.
func (s *System) PriceCheckCurrencyContext(ctx context.Context, userID, url, curr string) (*CheckResult, error) {
	return s.priceCheckOrigin(ctx, userID, url, curr, "")
}

// priceCheckOrigin runs the protocol tagging the check's origin ("" =
// user-submitted, "watch" = scheduler-driven), and folds the rows of a
// fan-out into the price history.
func (s *System) priceCheckOrigin(ctx context.Context, userID, url, curr, origin string) (*CheckResult, error) {
	u, ok := s.User(userID)
	if !ok {
		return nil, fmt.Errorf("core: unknown user %q", userID)
	}
	res, err := s.addon.Check(ctx, u, url, curr, s.Day(), origin)
	if res != nil && res.Source == coordinator.SourceFanout {
		s.recordHistory(url, res.Rows)
	}
	return res, err
}

// recordHistory folds one completed check into the longitudinal store:
// a history_points row per successful vantage (durable first, through the
// WAL when one is attached) and then the in-memory index. The row insert
// preceding the index append is what lets a client treat any point it can
// query as recoverable.
func (s *System) recordHistory(url string, rows []measurement.ResultRow) {
	// Millisecond precision, matching the ts_ms column: the live index and
	// a recovered one must agree exactly.
	now := time.UnixMilli(time.Now().UnixMilli()).UTC()
	// One point per vantage country per check — the cheapest converted
	// price seen from that country, the figure the verdicts reason about.
	// A fleet with several IPs per country thus still yields exactly one
	// point per series per run.
	for country, price := range cheapestByCountry(rows) {
		// The country outlives the check as a series key and a stored
		// column, and over the wire it is a slice of the whole results
		// frame (rows plus span blob): clone it where it enters long-lived
		// state, or two bytes pin kilobytes per check.
		key := history.SeriesKey{URL: url, Country: strings.Clone(country)}
		pt := history.Point{T: now, Price: price}
		if _, err := s.coreDB.Insert(history.PointsTable.Name, history.PointRow(key, pt)); err != nil {
			continue
		}
		s.history.Append(key, pt)
	}
}

// WatchUserID is the synthetic initiator the watch scheduler submits its
// recurring checks as.
const WatchUserID = "sheriff-watchdog"

// ensureWatchUser lazily registers the scheduler's initiator.
func (s *System) ensureWatchUser() (string, error) {
	s.mu.Lock()
	_, ok := s.users[WatchUserID]
	s.mu.Unlock()
	if ok {
		return WatchUserID, nil
	}
	if _, err := s.AddUser(WatchUserID, "US", ""); err != nil {
		return "", err
	}
	return WatchUserID, nil
}

// watchRunner executes one recurring check through the full pipeline and
// reduces the result rows to per-country prices (the cheapest vantage per
// country when several answered).
func (s *System) watchRunner(url, currency string) (*history.RunResult, error) {
	uid, err := s.ensureWatchUser()
	if err != nil {
		return nil, err
	}
	res, err := s.priceCheckOrigin(s.baseCtx, uid, url, currency, "watch")
	if err != nil {
		return nil, err
	}
	return &history.RunResult{PricesByCountry: cheapestByCountry(res.Rows)}, nil
}

// cheapestByCountry reduces a check's rows to one price per vantage
// country: the cheapest converted price among the country's successful
// rows, the figure the verdicts reason about.
func cheapestByCountry(rows []measurement.ResultRow) map[string]float64 {
	best := map[string]float64{}
	for _, row := range rows {
		if row.Err != "" || row.Converted <= 0 || row.Country == "" {
			continue
		}
		if cur, ok := best[row.Country]; !ok || row.Converted < cur {
			best[row.Country] = row.Converted
		}
	}
	return best
}

// SelectPrice simulates the user highlighting the product price: it finds
// the price element inside the product block (falling back to any price on
// the page) and builds the Tags Path.
func SelectPrice(html string) (htmlx.TagsPath, error) {
	doc := htmlx.Parse(html)
	priceNode := doc.QueryOne(".product .price")
	if priceNode == nil {
		priceNode = doc.QueryOne(".price")
	}
	if priceNode == nil {
		return htmlx.TagsPath{}, ErrNoPrice
	}
	return htmlx.BuildTagsPath(priceNode)
}

// TrainDoppelgangers runs the privacy-preserving clustering over the
// donated browsing histories and builds one doppelganger per cluster
// (Sects. 3.7/3.8): profiles are vectorized over basis, encrypted by each
// donating user, clustered between the in-system Coordinator/Aggregator
// pair, and the resulting centroids are executed into doppelganger state.
// threads == 0 parallelizes the encryption and mapping phases over all
// available CPUs (privkmeans.Config.Threads semantics); negative values
// are rejected by privkmeans.Run.
func (s *System) TrainDoppelgangers(k int, basis []string, threads int) (*privkmeans.Outcome, error) {
	s.mu.Lock()
	var donors []*User
	for _, u := range s.users {
		if u.DonatesHistory {
			donors = append(donors, u)
		}
	}
	s.mu.Unlock()
	if len(donors) < k {
		return nil, fmt.Errorf("core: %d donors for k=%d clusters", len(donors), k)
	}

	points := make([]cluster.Point, len(donors))
	for i, u := range donors {
		points[i] = cluster.Vectorize(u.Browser.HistoryDomains(), basis)
	}
	out, err := privkmeans.Run(privkmeans.Config{
		K: k, M: len(basis), Threads: threads, Seed: 42, Restarts: 3,
	}, points)
	if err != nil {
		return nil, err
	}

	mgr := doppelganger.NewManager(basis, doppelganger.TrackerTrainer{
		Trackers:   s.Mall.Trackers,
		Categories: shop.Categories,
	})
	if err := mgr.RebuildAll(out.Centroids); err != nil {
		return nil, err
	}

	assign := make(map[string]int, len(donors))
	for i, u := range donors {
		assign[u.ID] = out.Assign[i]
	}
	// Non-donors get the cluster of the doppelganger with the most members
	// (they shared no history, so the most generic profile shields them).
	counts := make([]int, k)
	for _, c := range out.Assign {
		counts[c]++
	}
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}

	s.mu.Lock()
	s.dopps = mgr
	s.directory.set(mgr, assign, best)
	s.Coord.Dopps = mgr
	s.mu.Unlock()
	return out, nil
}

// Doppelgangers returns the live doppelganger manager (nil before
// training).
func (s *System) Doppelgangers() *doppelganger.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dopps
}

// Close shuts every component down. The watch scheduler stops first (no
// new checks enter the pipeline), the persister last (every committed
// write reaches the WAL before the final sync).
func (s *System) Close() error {
	if s.watcher != nil {
		s.watcher.Stop()
	}
	s.mu.Lock()
	users := make([]*User, 0, len(s.users))
	for _, u := range s.users {
		users = append(users, u)
	}
	stops := s.stopBeat
	rpcs := s.measRPC
	s.mu.Unlock()

	for _, u := range users {
		u.Node.Close()
	}
	if s.stopReaper != nil {
		s.stopReaper()
	}
	for _, stop := range stops {
		stop()
	}
	s.addon.Close()
	for _, r := range rpcs {
		r.Close()
	}
	if s.haNode != nil {
		s.haNode.Close()
	}
	s.coordSrv.Close()
	s.broker.Close()
	s.shardMu.Lock()
	for _, r := range s.routers {
		r.Close()
	}
	for _, es := range s.extraShards {
		es.srv.Close()
	}
	s.shardMu.Unlock()
	s.dbSrv.Close()
	s.shopSrv.Close()
	var firstErr error
	if s.persister != nil {
		firstErr = s.persister.Close()
	}
	// After the persister detaches (no more WAL appends), release the
	// table engines — for disk-resident tables this runs a final flush so
	// the next boot reattaches without replaying the whole memtable.
	if err := s.coreDB.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// systemDirectory implements peer.DoppDirectory against the trained
// manager; before training every lookup fails and PPC nodes degrade to
// clean-profile fetches.
type systemDirectory struct {
	system *System

	mu      sync.Mutex
	mgr     *doppelganger.Manager
	assign  map[string]int
	deflt   int
	trained bool
}

func (d *systemDirectory) set(mgr *doppelganger.Manager, assign map[string]int, deflt int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mgr = mgr
	d.assign = assign
	d.deflt = deflt
	d.trained = true
}

// TokenFor is the Aggregator-side lookup (step 3.3).
func (d *systemDirectory) TokenFor(peerID string) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.trained {
		return "", errors.New("core: doppelgangers not trained")
	}
	clusterID, ok := d.assign[peerID]
	if !ok {
		clusterID = d.deflt
	}
	tok, ok := d.mgr.Token(clusterID)
	if !ok {
		return "", errors.New("core: no doppelganger for cluster")
	}
	return tok, nil
}

// ClientState is the Coordinator-side redemption (step 3.4) plus budget
// accounting.
func (d *systemDirectory) ClientState(token, domain string) (map[string]string, error) {
	d.mu.Lock()
	mgr := d.mgr
	d.mu.Unlock()
	if mgr == nil {
		return nil, errors.New("core: doppelgangers not trained")
	}
	state, err := mgr.ClientState(token)
	if err != nil {
		return nil, err
	}
	if _, err := mgr.RecordFetch(token, domain); err != nil {
		return nil, err
	}
	return state, nil
}

// FormatResult renders a CheckResult as the Fig. 2 result page (text
// form): converted value, original text, and the low-confidence asterisk
// with its footnote.
func FormatResult(r *CheckResult) string {
	var b []byte
	b = fmt.Appendf(b, "Price check %s — %s (converted to %s)\n", r.JobID, r.URL, r.Currency)
	if note := measurement.AsOfNote(r.Source, r.JobID, r.AsOf, time.Now()); note != "" {
		b = fmt.Appendf(b, "Vantage prices %s\n", note)
	}
	b = fmt.Appendf(b, "%-28s %-14s %-14s %s\n", "Variant", "Converted", "Original", "")
	lowSeen := false
	for _, row := range r.Rows {
		name := row.Source
		if row.Kind == "ipc" || row.Kind == "ppc" {
			name = fmt.Sprintf("%s, %s", row.Country, row.City)
			if row.Kind == "ppc" {
				name = "peer " + name
			}
		}
		if row.Err != "" {
			b = fmt.Appendf(b, "%-28s %-14s %-14s (%s)\n", name, "-", row.Original, row.Err)
			continue
		}
		mark := ""
		if row.Confidence == "low" {
			mark, lowSeen = "*", true
		}
		b = fmt.Appendf(b, "%-28s %-14s %-14s %s\n",
			name, currency.Format(row.Converted, r.Currency)+mark, row.Original, row.Mode)
	}
	if lowSeen {
		b = append(b, "* Currency detection confidence is low. Please double check the result.\n"...)
	}
	return string(b)
}
