package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"pricesheriff/internal/measurement"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/transport"
)

// newPoolSystem boots a deployment with the given fabric and pool size and
// a few users in Spain. The caller closes it.
func newPoolSystem(t *testing.T, fabric transport.Network, servers int) (*System, []*User) {
	t.Helper()
	mall := shop.NewMall(shop.MallConfig{Seed: 9, NumDomains: 40, NumLocationPD: 12, NumAlexa: 5, IncludePDIPD: true})
	sys, err := NewSystem(Config{
		Fabric:             fabric,
		Mall:               mall,
		MeasurementServers: servers,
		IPCCountries:       []string{"ES", "US", "JP"},
		PPCTimeout:         5 * time.Second,
		Seed:               9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, addUsers(t, sys, "ES", 4)
}

func msDials(sys *System) int64 {
	return sys.Metrics().Counter("sheriff_core_ms_dials_total").Value()
}

// TestPooledClientRedialsAfterServerRestart: a Measurement server that
// went away between two checks and came back on its address — the
// auto-scaler replacing it, a crash and restart — costs the next check one
// re-dial, not a failure.
func TestPooledClientRedialsAfterServerRestart(t *testing.T) {
	sys, users := newPoolSystem(t, nil, 1)
	defer sys.Close()
	url := productURL(t, sys, "steampowered.com", 0)

	for i := 0; i < 2; i++ {
		if _, err := sys.PriceCheckContext(context.Background(), users[0].ID, url); err != nil {
			t.Fatal(err)
		}
	}
	if n := msDials(sys); n != 1 {
		t.Fatalf("dials after two checks on one server = %d, want 1 (lazily, once)", n)
	}

	// Restart the front-end on the same address.
	sys.mu.Lock()
	old, ms := sys.measRPC[0], sys.meas[0]
	sys.mu.Unlock()
	addr := old.Addr()
	old.Close()
	lis, err := sys.fabric.Listen(addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	fresh := measurement.NewRPCServer(ms, lis)
	go fresh.Serve()
	sys.mu.Lock()
	sys.measRPC[0] = fresh
	sys.mu.Unlock()

	// Another product: a fan-out of its own, not an attach to the first.
	res, err := sys.PriceCheckContext(context.Background(), users[1].ID, productURL(t, sys, "steampowered.com", 1))
	if err != nil {
		t.Fatalf("check after the server restarted: %v", err)
	}
	if len(res.Rows) < 2 {
		t.Errorf("rows = %d after the restart", len(res.Rows))
	}
	if n := msDials(sys); n != 2 {
		t.Errorf("dials after the restart = %d, want 2 (one re-dial)", n)
	}
}

// TestConcurrentChecksShareOneConnectionPerServer: the submitting side
// keeps one multiplexed connection per Measurement server however many
// checks are in flight, and System.Close closes every one of them.
func TestConcurrentChecksShareOneConnectionPerServer(t *testing.T) {
	sys, users := newPoolSystem(t, transport.TCP{}, 2)
	urls := distinctURLs(t, sys, 64)

	// First use dials each server once.
	sys.mu.Lock()
	fronts := append([]*measurement.RPCServer(nil), sys.measRPC...)
	sys.mu.Unlock()
	for _, front := range fronts {
		cli, err := sys.addon.ms.client(front.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.ResultsCtx(context.Background(), "no-such-job", 0); err == nil {
			t.Fatal("poll of an unknown job succeeded")
		}
	}
	if n := msDials(sys); n != 2 {
		t.Fatalf("dials after first use of 2 servers = %d, want 2", n)
	}

	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := sys.PriceCheckContext(context.Background(), users[i%len(users)].ID, urls[i])
			if err != nil {
				t.Errorf("check %d: %v", i, err)
				return
			}
			for _, r := range res.Rows {
				if r.Err != "" {
					t.Errorf("check %d row %s: %s", i, r.Source, r.Err)
				}
			}
		}(i)
	}
	wg.Wait()
	if n := msDials(sys); n != 2 {
		t.Errorf("dials after 64 concurrent checks over 2 servers = %d, want still 2", n)
	}

	sys.addon.ms.mu.Lock()
	var pooled []*measurement.Client
	for _, mc := range sys.addon.ms.conns {
		mc.mu.Lock()
		if mc.cli != nil {
			pooled = append(pooled, mc.cli)
		}
		mc.mu.Unlock()
	}
	sys.addon.ms.mu.Unlock()
	if len(pooled) == 0 {
		t.Fatal("no pooled client after 64 checks")
	}
	sys.Close()
	deadline := time.Now().Add(2 * time.Second)
	for _, cli := range pooled {
		for !cli.Broken() {
			if time.Now().After(deadline) {
				t.Fatal("System.Close left a pooled measurement client open")
			}
			time.Sleep(time.Millisecond)
		}
	}
}
