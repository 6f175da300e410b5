package adminui

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"pricesheriff/internal/obs"
	"pricesheriff/internal/shard"
	"pricesheriff/internal/store"
	"pricesheriff/internal/transport"
)

// newShardedUI wires the admin UI to a real two-shard data plane on an
// in-process fabric, with the shard metrics bundle on the UI's registry
// so /metrics exposes the sheriff_shard_* series.
func newShardedUI(t *testing.T) *Server {
	t.Helper()
	ui, _ := newUI(t)
	ui.Metrics = obs.NewRegistry()

	netw := transport.NewInproc()
	var members []shard.Member
	for i := 0; i < 2; i++ {
		db, err := store.NewPlaneDB(i, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lis, err := netw.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		srv := store.NewServer(db, lis)
		go srv.Serve()
		t.Cleanup(func() { srv.Close() })
		members = append(members, shard.Member{ID: fmt.Sprintf("shard-%d", i), Addr: srv.Addr(), Ordinal: i})
	}
	ring := shard.NewRing(3, 32, members)
	r, err := shard.NewRouter(netw, ring, shard.Options{PoolSize: 2, Metrics: shard.NewMetrics(ui.Metrics)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	ctx := context.Background()
	spec := store.TableSpec{Name: "requests", Unique: []string{"job_id"}, Index: []string{"domain"}}
	if err := r.CreateTableCtx(ctx, spec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		row := store.Row{
			"job_id": fmt.Sprintf("j%d", i),
			"url":    fmt.Sprintf("https://shop%d.example.com/p", i),
			"domain": fmt.Sprintf("shop%d.example.com", i),
		}
		if _, err := r.InsertCtx(ctx, "requests", row); err != nil {
			t.Fatal(err)
		}
	}
	// A real ring change so the rebalance counters carry samples.
	if _, err := r.Rebalance(ctx, ring.Remove("shard-1")); err != nil {
		t.Fatal(err)
	}
	ui.Shards = r
	return ui
}

func TestShardsEndpoints404WithoutPlane(t *testing.T) {
	ui, _ := newUI(t)
	if code, _ := get(t, ui.Handler(), "/shards.json"); code != 404 {
		t.Fatalf("/shards.json without a plane = %d, want 404", code)
	}
}

func TestShardsPanelAndJSON(t *testing.T) {
	ui := newShardedUI(t)

	code, body := get(t, ui.Handler(), "/shards.json")
	if code != 200 {
		t.Fatalf("/shards.json = %d", code)
	}
	var st shard.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("decode /shards.json: %v", err)
	}
	if st.RingVersion != 2 || len(st.Shards) != 1 || st.Rebalancing {
		t.Fatalf("status = v%d/%d shards rebalancing=%v, want v2/1/false", st.RingVersion, len(st.Shards), st.Rebalancing)
	}
	if st.Shards[0].Keys["requests"] != 20 {
		t.Fatalf("surviving shard holds %d requests, want 20", st.Shards[0].Keys["requests"])
	}
	if st.LastChange == nil || st.LastChange.KeysMoved == 0 {
		t.Fatalf("last change = %+v, want a move report", st.LastChange)
	}
}

// TestMetricsExposeShardSeries asserts the sharded data plane's
// telemetry reaches the Prometheus endpoint.
func TestMetricsExposeShardSeries(t *testing.T) {
	ui := newShardedUI(t)
	code, body := get(t, ui.Handler(), "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, series := range []string{
		"sheriff_shard_ring_version 2",
		"sheriff_shard_members 1",
		"sheriff_shard_rebalancing 0",
		"sheriff_shard_rebalance_keys_moved_total",
		"sheriff_shard_rebalance_bytes_moved_total",
		"sheriff_shard_router_misroutes_total",
		"sheriff_shard_router_retries_total",
		`sheriff_shard_ops_total{shard="shard-0"}`,
		`sheriff_shard_op_method_total{method="insert"}`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}
