package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"pricesheriff/internal/history"
	"pricesheriff/internal/measurement"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/store"
)

// plainShop finds a long-tail shop with no pricing strategy — a retailer
// that starts out honest.
func plainShop(t *testing.T, sys *System) *shop.Shop {
	t.Helper()
	for _, d := range sys.Mall.Domains() {
		if !strings.HasPrefix(d, "shop-0") {
			continue
		}
		s, _ := sys.Mall.Shop(d)
		if s != nil && s.Strategy == nil && len(s.Products()) > 0 {
			return s
		}
	}
	t.Fatal("no strategy-free long-tail shop in the mall")
	return nil
}

// TestWatchSpreadAppearedThroughPipeline is the PR's longitudinal story
// end to end: a watch re-checks an honest shop, the shop flips on
// cross-border price discrimination mid-run, and the next run emits a
// spread-appeared verdict — through the real coordinator/measurement
// path, not a stub runner.
func TestWatchSpreadAppearedThroughPipeline(t *testing.T) {
	sys := newSystem(t)
	victim := plainShop(t, sys)
	url := victim.ProductURL(victim.Products()[0].SKU)

	id, err := sys.Watches().Add(url, "USD")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // honest baseline
		if err := sys.Watches().RunWatch(id); err != nil {
			t.Fatal(err)
		}
	}
	vs, err := sys.Watches().Verdicts(url)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("honest shop produced verdicts: %+v", vs)
	}

	// The retailer starts discriminating against US visitors.
	victim.SetStrategy(shop.LocationFactor{Factors: map[string]float64{"US": 1.15}, Default: 1})
	if err := sys.Watches().RunWatch(id); err != nil {
		t.Fatal(err)
	}

	vs, err = sys.Watches().Verdicts(url)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range vs {
		if v.Kind == history.VerdictSpreadAppeared {
			found = true
			if v.Spread < 0.05 {
				t.Fatalf("spread-appeared with spread %.3f, expected >=0.05", v.Spread)
			}
		}
	}
	if !found {
		t.Fatalf("no spread-appeared verdict after the flip; verdicts = %+v", vs)
	}

	// Watch-originated checks are tagged in the requests table.
	rows, err := sys.DB().SelectCtx(context.Background(), store.Query{Table: "requests", Eq: map[string]any{"origin": "watch"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d watch-tagged request rows, want 4", len(rows))
	}

	// Each run fed the longitudinal index with per-country points.
	key := history.SeriesKey{URL: url, Country: "US"}
	if n := sys.History().Len(key); n < 4 {
		t.Fatalf("US series has %d points, want >=4", n)
	}

	// And the counters the operators watch moved.
	if v := sys.Metrics().Counter("sheriff_watch_runs_total").Value(); v != 4 {
		t.Fatalf("sheriff_watch_runs_total = %d, want 4", v)
	}
	if v := sys.Metrics().Counter("sheriff_watch_verdicts_total", "verdict", history.VerdictSpreadAppeared).Value(); v < 1 {
		t.Fatal("spread-appeared verdict counter did not move")
	}
}

// TestDurableSystemRecoversAcrossRestart boots a system on a data dir,
// records price history, closes it, and boots a second incarnation on the
// same dir: series, watches, and measurement rows must all survive.
func TestDurableSystemRecoversAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	mkCfg := func() Config {
		mall := shop.NewMall(shop.MallConfig{Seed: 9, NumDomains: 40, NumLocationPD: 12, NumAlexa: 5})
		return Config{
			Mall:               mall,
			MeasurementServers: 1,
			IPCCountries:       []string{"US", "DE", "JP"},
			PPCTimeout:         5 * time.Second,
			Seed:               9,
			DataDir:            dir,
			Fsync:              history.FsyncOff, // Close syncs; this test doesn't kill -9
			WatchInterval:      time.Hour,
		}
	}

	sys, err := NewSystem(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	victim := plainShop(t, sys)
	url := victim.ProductURL(victim.Products()[0].SKU)
	id, err := sys.Watches().Add(url, "USD")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := sys.Watches().RunWatch(id); err != nil {
			t.Fatal(err)
		}
	}
	key := history.SeriesKey{URL: url, Country: "US"}
	wantPts := sys.History().Range(key, time.Time{}, time.Time{})
	if len(wantPts) == 0 {
		t.Fatal("no US points before restart")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := NewSystem(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	gotPts := sys2.History().Range(key, time.Time{}, time.Time{})
	if len(gotPts) != len(wantPts) {
		t.Fatalf("recovered %d points, want %d", len(gotPts), len(wantPts))
	}
	for i := range wantPts {
		if !gotPts[i].T.Equal(wantPts[i].T) || gotPts[i].Price != wantPts[i].Price {
			t.Fatalf("point %d = %+v, want %+v", i, gotPts[i], wantPts[i])
		}
	}
	ws, err := sys2.Watches().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || ws[0].URL != url || ws[0].Runs != 2 {
		t.Fatalf("recovered watches = %+v", ws)
	}
	// The recovered watch keeps running through the new incarnation.
	if err := sys2.Watches().RunWatch(ws[0].ID); err != nil {
		t.Fatal(err)
	}
	if n := sys2.History().Len(key); n != len(wantPts)+1 {
		t.Fatalf("post-restart run did not extend the series: %d", n)
	}
}

// TestJobIDsAreUniqueAcrossRestart: the store outlives the Coordinator's
// job counter. A check before and a check after a restart on one data dir
// must leave two requests rows, and each job's responses must join its own
// request only.
func TestJobIDsAreUniqueAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	boot := func() (*System, *User) {
		mall := shop.NewMall(shop.MallConfig{Seed: 9, NumDomains: 40, NumLocationPD: 12, NumAlexa: 5})
		sys, err := NewSystem(Config{
			Mall: mall, MeasurementServers: 1, IPCCountries: []string{"US", "DE", "JP"},
			PPCTimeout: 5 * time.Second, Seed: 9, DataDir: dir, Fsync: history.FsyncOff,
			WatchInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		u, err := sys.AddUser("es-user", "ES", "")
		if err != nil {
			t.Fatal(err)
		}
		return sys, u
	}
	check := func(sys *System, u *User, idx int) string {
		s := plainShop(t, sys)
		res, err := sys.PriceCheckContext(ctx, u.ID, s.ProductURL(s.Products()[idx].SKU))
		if err != nil {
			t.Fatal(err)
		}
		settle(t, sys)
		return res.JobID
	}

	sys, u := boot()
	first := check(sys, u, 0)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys, u = boot()
	defer sys.Close()
	second := check(sys, u, 1)
	if first == second {
		t.Fatalf("both incarnations minted job %s", first)
	}

	reqs, err := sys.DB().SelectCtx(ctx, store.Query{Table: measurement.RequestsTable.Name})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("%d requests rows, want 2: %v", len(reqs), reqs)
	}
	for _, req := range reqs {
		job := req["job_id"]
		resps, err := sys.DB().SelectCtx(ctx, store.Query{Table: measurement.ResponsesTable.Name, Eq: map[string]any{"job_id": job}})
		if err != nil {
			t.Fatal(err)
		}
		if len(resps) != 3 {
			t.Errorf("job %v has %d responses rows, want its own 3", job, len(resps))
		}
		for _, r := range resps {
			if r["request_id"] != req["_id"] {
				t.Errorf("job %v: a response joins request %v, want %v", job, r["request_id"], req["_id"])
			}
		}
	}
}
