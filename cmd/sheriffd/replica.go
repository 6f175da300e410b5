package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"strings"
	"time"

	"pricesheriff/internal/adminui"
	"pricesheriff/internal/chaos"
	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/ha"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/transport"
)

// replicaOpts collects the flags relevant to -coord-only mode.
type replicaOpts struct {
	self      string
	peers     []string
	heartbeat time.Duration
	lease     time.Duration
	dir       string
	hbTimeout time.Duration
	seed      int64
	admin     string
	chaosCtl  bool
	chaosSeed int64
	logger    *obs.Logger
}

// runCoordReplica boots one coordinator replica of a replicated control
// plane and nothing else: no shops, database, broker or measurement
// servers. Every replica derives the whitelist and world from the same
// -seed, so the set agrees on them without replication; job and registry
// state then flows over the ha log. The chaos e2e drives a set of these
// processes, SIGKILLing and partitioning them.
func runCoordReplica(ctx context.Context, o replicaOpts) {
	mall := shop.NewMall(shop.MallConfig{Seed: o.seed, NumDomains: 60, NumLocationPD: 20, NumAlexa: 10})
	reg := obs.NewRegistry()

	// The replica's outbound fabric, optionally behind a partition
	// injector steered over the chaos control RPC.
	var fabric transport.Network = transport.TCP{Metrics: transport.NewMetrics(reg, "tcp")}
	var fab *chaos.Fabric
	if o.chaosCtl {
		fab = chaos.NewFabric(fabric, chaos.Config{Seed: o.chaosSeed})
		fabric = fab
		defer fab.Close()
	}

	coordMetrics := coordinator.NewMetrics(reg)
	servers := coordinator.NewServerList(o.hbTimeout, coordinator.LeastPending, nil)
	servers.Metrics = coordMetrics
	coord := coordinator.New(servers, coordinator.NewWhitelist(mall.Domains()), mall.World)
	coord.Metrics = coordMetrics
	coord.Log = o.logger.With("comp", "coordinator")

	lis, err := fabric.Listen(o.self)
	if err != nil {
		log.Fatalf("listen %s: %v", o.self, err)
	}
	srv := coordinator.NewServer(coord, lis)
	node, err := ha.NewNode(ha.Config{
		Self:              o.self,
		Peers:             o.peers,
		Fabric:            fabric,
		HeartbeatInterval: o.heartbeat,
		LeaseTimeout:      o.lease,
		Dir:               o.dir,
		Seed:              o.seed + 5,
		SM:                coordinator.NewStateMachine(coord, o.logger.With("comp", "ha")),
		OnPromote:         coord.OnPromote,
		Metrics:           ha.NewMetrics(reg),
		Log:               o.logger.With("comp", "ha"),
	})
	if err != nil {
		log.Fatalf("ha node: %v", err)
	}
	srv.AttachHA(node)
	go srv.Serve()
	node.Start()
	defer srv.Close()
	defer node.Close()
	stopReaper := srv.StartHAReaper(o.hbTimeout)
	defer stopReaper()

	fmt.Println("Price $heriff coordinator replica up:")
	fmt.Printf("  coordinator:         %s\n", srv.Addr())
	fmt.Printf("  replica set:         %s\n", strings.Join(o.peers, ","))

	// The control RPC rides a raw TCP listener outside the chaos fabric,
	// so a fully partitioned replica still takes heal orders.
	if o.chaosCtl {
		ctlLis, err := transport.TCP{}.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatalf("chaos control: %v", err)
		}
		ctl := transport.NewServer(ctlLis)
		type target struct {
			Addr string `json:"addr"`
		}
		ctl.Handle("chaos.block", func(raw json.RawMessage) (any, error) {
			var t target
			if err := json.Unmarshal(raw, &t); err != nil {
				return nil, err
			}
			fab.Block(t.Addr)
			return "ok", nil
		})
		ctl.Handle("chaos.heal", func(raw json.RawMessage) (any, error) {
			var t target
			if err := json.Unmarshal(raw, &t); err != nil {
				return nil, err
			}
			fab.Heal(t.Addr)
			return "ok", nil
		})
		go ctl.Serve()
		defer ctl.Close()
		fmt.Printf("  chaos control:       %s\n", ctlLis.Addr())
	}

	if o.admin != "" {
		ui := adminui.New(coord)
		ui.Metrics = reg
		ui.Logs = o.logger.Ring()
		ui.HA = node
		if err := ui.Listen(o.admin); err != nil {
			log.Fatalf("admin ui: %v", err)
		}
		defer ui.Close()
		fmt.Printf("  admin api:           %s\n", ui.Addr())
	}

	fmt.Println("Serving until interrupted (Ctrl-C).")
	<-ctx.Done()
	fmt.Println("\nshutting down")
	st := node.StatusSnapshot()
	fmt.Printf("final role: %s in term %d; %d failovers seen\n", st.State, st.Term, st.Failovers)
}
