// Command sheriffd boots a complete Price $heriff deployment on local TCP
// sockets: the synthetic e-commerce world, the Coordinator, N Measurement
// servers, the shared Database server, the P2P relay broker, the 30-IPC
// fleet, and (optionally) a population of simulated peer users in various
// countries.
//
// It prints the component addresses so external tools — cmd/sheriffctl in
// particular — can join the deployment as additional peers or issue price
// checks, then serves until interrupted.
//
// Usage:
//
// A chaos soak — boot cleanly, then inject faults into all control
// traffic while watching the fault-tolerance metrics on the admin UI:
//
//	sheriffd -chaos-err 0.05 -chaos-hang 0.01 -chaos-latency 20ms -check-deadline 30s
//
// A durable watchdog — persist everything under a data dir and re-check a
// shop's first product every 30 seconds, surviving restarts:
//
//	sheriffd -data-dir ./sheriff-data -fsync interval -watch shop-0031.com -watch-interval 30s
//
//	sheriffd [-servers 2] [-domains 200] [-users 12] [-seed 1] [-admin 127.0.0.1:0] [-debug] [-dump study.json]
//	         [-data-dir DIR] [-fsync always|interval|off] [-watch-interval 1m] [-watch domain1,domain2]
//	         [-store-engine mem|disk] [-page-cache-mb 32] [-wal-segment-bytes N]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pricesheriff/internal/adminui"
	"pricesheriff/internal/chaos"
	"pricesheriff/internal/core"
	"pricesheriff/internal/history"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/retry"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/store"
	"pricesheriff/internal/transport"
	"pricesheriff/internal/workload"
)

// tablesPlane adapts the System's storage report to the admin UI's
// TablePlane surface (adminui must not import core).
type tablesPlane struct{ sys *core.System }

func (t tablesPlane) TablesStatus() []adminui.TableStatus {
	sts := t.sys.TablesStatus()
	out := make([]adminui.TableStatus, len(sts))
	for i, st := range sts {
		out[i] = adminui.TableStatus{Shard: st.Shard, TableStat: st.TableStat}
	}
	return out
}

func (t tablesPlane) EngineCacheStats() (int64, int64) { return t.sys.EngineCacheStats() }

func main() {
	var (
		servers  = flag.Int("servers", 2, "measurement servers to boot")
		shards   = flag.Int("store-shards", 1, "store shards in the data plane (shard 0 is the durable one)")
		vnodes   = flag.Int("shard-vnodes", 0, "virtual nodes per shard on the consistent-hash ring (0 = default)")
		domains  = flag.Int("domains", 200, "checked e-commerce domains in the world")
		users    = flag.Int("users", 12, "simulated peer users to connect")
		seed     = flag.Int64("seed", 1, "world/workload seed")
		admin    = flag.String("admin", "127.0.0.1:0", "admin web UI address (empty disables)")
		debug    = flag.Bool("debug", false, "expose /debug/pprof and /debug/vars on the admin UI")
		dump     = flag.String("dump", "", "write the collected dataset to this JSON file on shutdown")
		logLevel = flag.String("log-level", "info", "minimum structured log level: debug, info, warn, error")

		checkDeadline = flag.Duration("check-deadline", 2*time.Minute, "whole-check deadline; expired checks complete with partial rows")
		vantageBudget = flag.Duration("vantage-budget", 0, "per-vantage fetch budget incl. retries (0 = check deadline)")
		retries       = flag.Int("retries", retry.DefaultAttempts, "attempts per vantage fetch (1 = no retries)")

		dataDir       = flag.String("data-dir", "", "durable data directory (WAL + checkpoints; empty = RAM only)")
		fsyncMode     = flag.String("fsync", "interval", "WAL fsync policy: always, interval or off")
		storeEngine   = flag.String("store-engine", "mem", "default storage engine for cold tables: mem or disk (disk requires -data-dir)")
		pageCacheMB   = flag.Int("page-cache-mb", 0, "disk engine block-cache budget in MiB (0 = default 32)")
		walSegBytes   = flag.Int64("wal-segment-bytes", 0, "WAL segment size in bytes (0 = default 4 MiB)")
		watchInterval = flag.Duration("watch-interval", time.Minute, "recurring-check period of the watch scheduler")
		watchDomains  = flag.String("watch", "", "comma-separated domains to watch from boot (first product of each)")

		haSelf      = flag.String("ha-self", "", "this replica's coordinator address within -peers (enables the replicated control plane)")
		haPeers     = flag.String("peers", "", "comma-separated coordinator replica addresses (requires -ha-self)")
		haHeartbeat = flag.Duration("ha-heartbeat", 0, "HA: primary heartbeat cadence (0 = 250ms)")
		haLease     = flag.Duration("ha-lease", 0, "HA: standby promotion timeout (0 = 8× heartbeat)")
		haDir       = flag.String("ha-dir", "", "HA: persist this replica's term/vote under this directory")
		coordOnly   = flag.Bool("coord-only", false, "boot only one coordinator replica of the -peers set (no shops/DB/measurement)")
		chaosCtl    = flag.Bool("chaos-ctl", false, "coord-only: expose a chaos control RPC for partition tests")
		hbTimeout   = flag.Duration("heartbeat-timeout", 10*time.Second, "measurement-server heartbeat lapse timeout")

		chaosSeed    = flag.Int64("chaos-seed", 0, "chaos fault-injection seed")
		chaosLatency = flag.Duration("chaos-latency", 0, "chaos: latency added to every frame send")
		chaosJitter  = flag.Duration("chaos-jitter", 0, "chaos: extra uniform latency on top")
		chaosErr     = flag.Float64("chaos-err", 0, "chaos: probability a frame send fails")
		chaosHang    = flag.Float64("chaos-hang", 0, "chaos: probability a frame send hangs until shutdown")
		chaosDrop    = flag.Float64("chaos-drop", 0, "chaos: probability the connection is torn down mid-send")
	)
	flag.Parse()
	log.SetFlags(log.Ltime)

	// Structured, trace-correlated logging: JSON lines on stderr plus a
	// bounded in-memory ring served at the admin UI's /logs.
	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	logger := obs.NewLogger(os.Stderr, lvl, 2048)

	var peerList []string
	for _, p := range strings.Split(*haPeers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if (*haSelf == "") != (len(peerList) == 0) {
		log.Fatal("-ha-self and -peers go together")
	}

	if *coordOnly {
		if *haSelf == "" {
			log.Fatal("-coord-only requires -ha-self and -peers")
		}
		ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSig()
		runCoordReplica(ctx, replicaOpts{
			self:      *haSelf,
			peers:     peerList,
			heartbeat: *haHeartbeat,
			lease:     *haLease,
			dir:       *haDir,
			hbTimeout: *hbTimeout,
			seed:      *seed,
			admin:     *admin,
			chaosCtl:  *chaosCtl,
			chaosSeed: *chaosSeed,
			logger:    logger,
		})
		return
	}

	mall := shop.NewMall(shop.MallConfig{
		Seed:          *seed,
		NumDomains:    *domains,
		NumLocationPD: max(4, *domains/26), // the paper's 76/1994 ratio
		NumAlexa:      max(5, *domains/5),
		IncludePDIPD:  true,
	})
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(64)

	// The fabric, optionally behind the chaos injector. Injection is held
	// off until the system has booted so start-up dials never fault.
	var fabric transport.Network = transport.TCP{Metrics: transport.NewMetrics(reg, "tcp")}
	var fab *chaos.Fabric
	chaosOn := *chaosErr > 0 || *chaosHang > 0 || *chaosDrop > 0 || *chaosLatency > 0
	if chaosOn {
		fab = chaos.NewFabric(fabric, chaos.Config{
			Seed:     *chaosSeed,
			Latency:  *chaosLatency,
			Jitter:   *chaosJitter,
			ErrRate:  *chaosErr,
			HangRate: *chaosHang,
			DropRate: *chaosDrop,
		})
		fab.SetEnabled(false)
		fabric = fab
		defer fab.Close()
	}

	fsync, err := history.ParseFsync(*fsyncMode)
	if err != nil {
		log.Fatal(err)
	}
	// SIGINT/SIGTERM cancel the system's base context: in-flight and
	// watch-driven checks abort cleanly instead of being orphaned.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	sys, err := core.NewSystem(core.Config{
		BaseContext:         ctx,
		Fabric:              fabric,
		Mall:                mall,
		MeasurementServers:  *servers,
		StoreShards:         *shards,
		ShardVNodes:         *vnodes,
		Seed:                *seed,
		Metrics:             reg,
		Tracer:              tracer,
		Logger:              logger,
		CheckDeadline:       *checkDeadline,
		VantageBudget:       *vantageBudget,
		RetryPolicy:         retry.Policy{MaxAttempts: *retries},
		DataDir:             *dataDir,
		Fsync:               fsync,
		StoreEngine:         *storeEngine,
		PageCacheMB:         *pageCacheMB,
		WALSegmentBytes:     *walSegBytes,
		WatchInterval:       *watchInterval,
		HeartbeatTimeout:    *hbTimeout,
		HASelf:              *haSelf,
		HAPeers:             peerList,
		HAHeartbeatInterval: *haHeartbeat,
		HALeaseTimeout:      *haLease,
		HADir:               *haDir,
	})
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	defer sys.Close()
	if *debug {
		expvar.Publish("sheriff", expvar.Func(func() any { return reg.Snapshot() }))
	}

	fmt.Println("Price $heriff deployment up:")
	fmt.Printf("  shops (the web):     %s\n", sys.ShopAddr())
	fmt.Printf("  coordinator:         %s\n", sys.CoordAddr())
	fmt.Printf("  p2p relay broker:    %s\n", sys.BrokerAddr())
	fmt.Printf("  database server:     %s\n", sys.DBAddr())
	fmt.Printf("  measurement servers: %d\n", sys.MeasurementServers())
	fmt.Printf("  checked domains:     %d\n", len(mall.Domains()))

	// Seed a peer population with the deployment's country skew so price
	// checks have same-country PPCs to tunnel through.
	specs := workload.Users(rand.New(rand.NewSource(*seed)), *users, workload.Top10Countries(), 0.36)
	for _, spec := range specs {
		if _, err := sys.AddUser(spec.ID, spec.Country, ""); err != nil {
			logger.Warn(ctx, "add user failed", "user", spec.ID, "err", err.Error())
			continue
		}
	}
	fmt.Printf("  simulated peers:     %d\n", len(sys.Users()))
	if *dataDir != "" {
		fmt.Printf("  data dir:            %s (fsync=%s, engine=%s)\n", *dataDir, fsync, *storeEngine)
	}

	// Register boot-time watches: the first product of each listed domain.
	if *watchDomains != "" {
		for _, d := range strings.Split(*watchDomains, ",") {
			d = strings.TrimSpace(d)
			if d == "" {
				continue
			}
			s, ok := mall.Shop(d)
			if !ok || len(s.Products()) == 0 {
				logger.Warn(ctx, "watch skipped: unknown domain or empty catalog", "domain", d)
				continue
			}
			u := s.ProductURL(s.Products()[0].SKU)
			if _, err := sys.Watches().Add(u, "USD"); err != nil {
				// A recovered data dir already carries its watches.
				if !errors.Is(err, store.ErrDupUnique) {
					logger.Warn(ctx, "watch registration failed", "url", u, "err", err.Error())
					continue
				}
			}
			fmt.Printf("  watching:            %s (every %v)\n", u, *watchInterval)
		}
	}

	if *admin != "" {
		ui := adminui.New(sys.Coord)
		ui.Metrics = reg
		ui.Tracer = tracer
		ui.Logs = logger.Ring()
		ui.DB = sys.StoreEngine()
		ui.History = sys.History()
		ui.Watches = sys.Watches()
		ui.HA = sys.HANode()
		ui.Shards = adminui.ShardPlaneFunc(sys.ShardStatus)
		ui.Tables = tablesPlane{sys}
		if *debug {
			ui.EnableDebug()
		}
		if err := ui.Listen(*admin); err != nil {
			log.Fatalf("admin ui: %v", err)
		}
		defer ui.Close()
		fmt.Printf("  admin web ui:        http://%s/\n", ui.Addr())
		fmt.Printf("  metrics:             http://%s/metrics\n", ui.Addr())
	}
	if fab != nil {
		fab.SetEnabled(true)
		fmt.Printf("  chaos:               on (seed %d, err %.2f, hang %.2f, drop %.2f, latency %v)\n",
			*chaosSeed, *chaosErr, *chaosHang, *chaosDrop, *chaosLatency)
	}

	fmt.Println("\nConnect with: sheriffctl -coord", sys.CoordAddr(),
		"-shops", sys.ShopAddr(), "-broker", sys.BrokerAddr())
	fmt.Println("Serving until interrupted (Ctrl-C).")

	<-ctx.Done()
	fmt.Println("\nshutting down")
	fmt.Printf("final stats: %d checks completed, p95 check latency %.3fs, %d proxy timeouts\n",
		reg.Counter("sheriff_measurement_checks_completed_total").Value(),
		reg.Histogram("sheriff_measurement_check_seconds").Quantile(0.95),
		reg.Counter("sheriff_measurement_proxy_timeouts_total").Value())
	fmt.Printf("fault tolerance: %d retries, %d partial checks, %d jobs requeued\n",
		reg.Counter("sheriff_measurement_retries_total").Value(),
		reg.Counter("sheriff_measurement_partial_checks_total").Value(),
		reg.Counter("sheriff_coordinator_jobs_requeued_total").Value())
	if fab != nil {
		st := fab.Stats()
		fmt.Printf("chaos injected: %d errors, %d hangs, %d drops, %d delays\n",
			st.Errors, st.Hangs, st.Drops, st.Delays)
	}

	if *dump != "" {
		snap, err := sys.DB().ExportCtx(context.Background())
		if err != nil {
			logger.Error(ctx, "export dataset failed", "err", err.Error())
			return
		}
		f, err := os.Create(*dump)
		if err != nil {
			logger.Error(ctx, "create dump file failed", "path", *dump, "err", err.Error())
			return
		}
		defer f.Close()
		if err := json.NewEncoder(f).Encode(snap); err != nil {
			logger.Error(ctx, "write dump file failed", "path", *dump, "err", err.Error())
			return
		}
		fmt.Printf("dataset written to %s\n", *dump)
	}
}
