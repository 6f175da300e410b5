package measurement

import (
	"context"
	"encoding/json"
	"testing"

	"pricesheriff/internal/store"
	"pricesheriff/internal/transport"
)

func procDB(t *testing.T) (*store.DB, *store.Client, func()) {
	t.Helper()
	db := store.NewDB()
	RegisterStandardProcs(db)
	netw := transport.NewInproc()
	lis, _ := netw.Listen("")
	srv := store.NewServer(db, lis)
	go srv.Serve()
	cli, err := store.Dial(netw, srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := EnsureTables(cli); err != nil {
		t.Fatal(err)
	}
	return db, cli, func() { cli.Close(); srv.Close() }
}

func seedStudy(t *testing.T, cli *store.Client) {
	t.Helper()
	rows := []struct {
		job, url string
	}{
		{"j1", "http://chegg.com/product/tb01"},
		{"j2", "http://chegg.com/product/my-account-page"}, // PII leak
		{"j3", "http://amazon.com/product/cam"},
	}
	for _, r := range rows {
		if _, err := cli.InsertCtx(context.Background(), "requests", store.Row{"job_id": r.job, "url": r.url, "domain": "chegg.com"}); err != nil {
			t.Fatal(err)
		}
	}
	resps := []struct {
		job, domain string
		converted   float64
	}{
		{"j1", "chegg.com", 10}, {"j1", "chegg.com", 12}, {"j1", "chegg.com", 11},
		{"j2", "chegg.com", 99},
		{"j3", "amazon.com", 500},
	}
	for _, r := range resps {
		if _, err := cli.InsertCtx(context.Background(), "responses", store.Row{"job_id": r.job, "domain": r.domain, "converted": r.converted}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestProcsOverWire(t *testing.T) {
	_, cli, done := procDB(t)
	defer done()
	seedStudy(t, cli)

	var counts map[string]int
	if err := cli.CallProcCtx(context.Background(), "responses_by_domain", nil, &counts); err != nil {
		t.Fatal(err)
	}
	if counts["chegg.com"] != 4 || counts["amazon.com"] != 1 {
		t.Errorf("counts = %v", counts)
	}

	var spread SpreadResult
	if err := cli.CallProcCtx(context.Background(), "price_spread", "j1", &spread); err != nil {
		t.Fatal(err)
	}
	if spread.Responses != 3 || spread.MinEUR != 10 || spread.MaxEUR != 12 {
		t.Errorf("spread = %+v", spread)
	}
	// Unknown job: empty result, no error.
	if err := cli.CallProcCtx(context.Background(), "price_spread", "nope", &spread); err != nil || spread.Responses != 0 {
		t.Errorf("unknown job: %+v %v", spread, err)
	}
}

func TestScrubPIIRemovesTaintedJobs(t *testing.T) {
	_, cli, done := procDB(t)
	defer done()
	seedStudy(t, cli)

	var report ScrubReport
	if err := cli.CallProcCtx(context.Background(), "scrub_pii", []string{"account", "profile"}, &report); err != nil {
		t.Fatal(err)
	}
	if report.RequestsDeleted != 1 || report.ResponsesDeleted != 1 {
		t.Errorf("report = %+v", report)
	}
	// The tainted job is gone, everything else survives.
	reqs, _ := cli.SelectCtx(context.Background(), store.Query{Table: "requests"})
	if len(reqs) != 2 {
		t.Errorf("requests left = %d", len(reqs))
	}
	resps, _ := cli.SelectCtx(context.Background(), store.Query{Table: "responses", Eq: map[string]any{"job_id": "j2"}})
	if len(resps) != 0 {
		t.Errorf("tainted responses left = %d", len(resps))
	}
	resps, _ = cli.SelectCtx(context.Background(), store.Query{Table: "responses", Eq: map[string]any{"job_id": "j1"}})
	if len(resps) != 3 {
		t.Errorf("clean responses damaged: %d", len(resps))
	}
	// Idempotent.
	if err := cli.CallProcCtx(context.Background(), "scrub_pii", []string{"account"}, &report); err != nil || report.RequestsDeleted != 0 {
		t.Errorf("second scrub = %+v %v", report, err)
	}
}

func TestProcBadArgs(t *testing.T) {
	db, _, done := procDB(t)
	defer done()
	if _, err := db.CallProc("price_spread", json.RawMessage(`{"bad":1}`)); err == nil {
		t.Error("bad args accepted")
	}
	if _, err := db.CallProc("scrub_pii", json.RawMessage(`"not-a-list"`)); err == nil {
		t.Error("bad scrub args accepted")
	}
}
