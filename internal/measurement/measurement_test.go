package measurement

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pricesheriff/internal/htmlx"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/store"
	"pricesheriff/internal/transport"
)

func TestDiffApplyRoundTrip(t *testing.T) {
	base := "a\nb\nc\nd\ne"
	cases := []string{
		"a\nb\nc\nd\ne",       // identical
		"a\nX\nc\nd\ne",       // substitution
		"a\nb\nc\nd\ne\nf\ng", // append
		"b\nc\nd",             // trim both ends
		"",                    // empty
		"completely\ndifferent",
	}
	for _, other := range cases {
		script := Diff(base, other)
		got, err := Apply(base, script)
		if err != nil {
			t.Fatalf("apply(%q): %v", other, err)
		}
		if got != other {
			t.Errorf("round trip %q -> %q", other, got)
		}
	}
}

func TestDiffIsCompactForSimilarPages(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		sb.WriteString("<div class=\"row\">content line</div>\n")
	}
	base := sb.String() + "<span class=\"price\">EUR654</span>"
	other := sb.String() + "<span class=\"price\">$699</span>"
	script := Diff(base, other)
	if DiffSize(script) >= len(other)/10 {
		t.Errorf("diff size %d not compact vs page size %d", DiffSize(script), len(other))
	}
	got, err := Apply(base, script)
	if err != nil || got != other {
		t.Error("compact diff failed to round trip")
	}
}

func TestApplyRejectsGarbage(t *testing.T) {
	for _, script := range [][]string{
		{""}, {"?x"}, {"=abc"}, {"=99"}, {"-99"},
	} {
		if _, err := Apply("a\nb", script); err == nil {
			t.Errorf("script %v accepted", script)
		}
	}
}

// Property: Apply(base, Diff(base, other)) == other for arbitrary strings.
func TestDiffRoundTripProperty(t *testing.T) {
	f := func(base, other string) bool {
		got, err := Apply(base, Diff(base, other))
		return err == nil && got == other
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIPCFleet(t *testing.T) {
	m := shop.NewMall(shop.MallConfig{Seed: 5, NumDomains: 20, NumLocationPD: 5, NumAlexa: 5})
	fleet, err := NewIPCFleet(m.World, shop.LocalFetcher{Mall: m}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 30 {
		t.Fatalf("fleet = %d, want 30 (paper)", len(fleet))
	}
	es := 0
	for _, ipc := range fleet {
		if ipc.Country == "ES" {
			es++
		}
		loc, ok := m.World.LookupString(ipc.IP)
		if !ok || loc.Country != ipc.Country {
			t.Errorf("IPC %s geolocates to %v", ipc.ID, loc)
		}
	}
	if es != 3 {
		t.Errorf("ES IPCs = %d, want 3", es)
	}
	if _, err := NewIPCFleet(m.World, nil, []string{"XX"}, 1); err == nil {
		t.Error("unknown country must fail")
	}
}

func TestIPCFetchIsClean(t *testing.T) {
	m := shop.NewMall(shop.MallConfig{Seed: 5, NumDomains: 20, NumLocationPD: 5, NumAlexa: 5})
	fleet, _ := NewIPCFleet(m.World, shop.LocalFetcher{Mall: m}, []string{"ES"}, 1)
	s, _ := m.Shop("chegg.com")
	url := s.ProductURL(s.Products()[0].SKU)
	resp, err := fleet[0].Fetch(context.Background(), url, 1)
	if err != nil || resp.Status != 200 {
		t.Fatalf("fetch: %v status %v", err, resp)
	}
	// Consecutive fetches carry no cookies: the tracker mints a fresh ID
	// every time, so the IPC never accumulates a profile.
	resp2, _ := fleet[0].Fetch(context.Background(), url, 1)
	if resp.SetCookies["adnet.example"] == resp2.SetCookies["adnet.example"] {
		t.Error("IPC reused tracker identity across fetches")
	}
}

// buildCheck prepares a mall, a tags path and an initiator copy for a URL.
func buildCheck(t *testing.T, m *shop.Mall, domain string, jobID string) (*CheckRequest, string) {
	t.Helper()
	s, ok := m.Shop(domain)
	if !ok {
		t.Fatalf("no shop %s", domain)
	}
	url := s.ProductURL(s.Products()[0].SKU)
	ip, _ := m.World.RandomIP(rand.New(rand.NewSource(11)), "ES", "")
	resp := m.Fetch(&shop.FetchRequest{URL: url, IP: ip.String(), Nonce: 1000, Day: 1})
	if resp.Status != 200 {
		t.Fatalf("initiator fetch status %d", resp.Status)
	}
	doc := htmlx.Parse(resp.HTML)
	price := doc.FindByClass("product")[0].FindByClass("price")[0]
	path, err := htmlx.BuildTagsPath(price)
	if err != nil {
		t.Fatal(err)
	}
	return &CheckRequest{
		JobID:         jobID,
		URL:           url,
		TagsPath:      path,
		InitiatorHTML: resp.HTML,
		InitiatorID:   "user-1",
		Day:           1,
	}, url
}

func TestProcessCheckIPCsOnly(t *testing.T) {
	m := shop.NewMall(shop.MallConfig{Seed: 6, NumDomains: 20, NumLocationPD: 5, NumAlexa: 5})
	fleet, _ := NewIPCFleet(m.World, shop.LocalFetcher{Mall: m}, []string{"ES", "US", "JP"}, 2)
	srv := New("ms-test", nil)
	srv.IPCs = fleet

	req, _ := buildCheck(t, m, "steampowered.com", "job-1")
	if err := srv.StartCheck(req); err != nil {
		t.Fatal(err)
	}
	rows, err := srv.WaitResults("job-1", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // You + 3 IPCs
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Source != "You" || rows[0].Kind != "initiator" {
		t.Errorf("first row = %+v", rows[0])
	}
	for _, r := range rows {
		if r.Err != "" {
			t.Errorf("row %s error: %s", r.Source, r.Err)
		}
		if r.Converted <= 0 {
			t.Errorf("row %s converted = %v", r.Source, r.Converted)
		}
		if r.Currency == "" {
			t.Errorf("row %s has no currency", r.Source)
		}
	}
	// steampowered applies location factors: at least two distinct
	// EUR-converted prices across ES/US/JP vantage points.
	prices := map[float64]bool{}
	for _, r := range rows[1:] {
		prices[r.Converted] = true
	}
	if len(prices) < 2 {
		t.Errorf("location PD not visible: %v", prices)
	}
}

func TestStartCheckValidation(t *testing.T) {
	srv := New("ms", nil)
	if err := srv.StartCheck(&CheckRequest{}); err == nil {
		t.Error("empty check accepted")
	}
	req := &CheckRequest{JobID: "j", URL: "http://x.com/product/1"}
	if err := srv.StartCheck(req); err != nil {
		t.Fatal(err)
	}
	if err := srv.StartCheck(req); err != ErrDuplicateJob {
		t.Errorf("duplicate = %v", err)
	}
	if _, err := srv.Results("nope", 0); err != ErrUnknownJob {
		t.Errorf("unknown job = %v", err)
	}
}

func TestResultsIncrementalPolling(t *testing.T) {
	m := shop.NewMall(shop.MallConfig{Seed: 6, NumDomains: 20, NumLocationPD: 5, NumAlexa: 5})
	fleet, _ := NewIPCFleet(m.World, shop.LocalFetcher{Mall: m}, []string{"ES", "US"}, 2)
	srv := New("ms-test", nil)
	srv.IPCs = fleet
	req, _ := buildCheck(t, m, "chegg.com", "job-poll")
	if err := srv.StartCheck(req); err != nil {
		t.Fatal(err)
	}
	// Poll incrementally: rows must never be duplicated or lost.
	var rows []ResultRow
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := srv.Results("job-poll", len(rows))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, resp.Rows...)
		if resp.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("poll timeout")
		}
	}
	if len(rows) != 3 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestRecordingToStore(t *testing.T) {
	netw := transport.NewInproc()
	lisDB, _ := netw.Listen("")
	dbSrv := store.NewServer(store.NewDB(), lisDB)
	go dbSrv.Serve()
	defer dbSrv.Close()
	db, err := store.Dial(netw, dbSrv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := EnsureTables(db); err != nil {
		t.Fatal(err)
	}
	if err := EnsureTables(db); err != nil {
		t.Fatal("EnsureTables not idempotent:", err)
	}

	m := shop.NewMall(shop.MallConfig{Seed: 6, NumDomains: 20, NumLocationPD: 5, NumAlexa: 5})
	fleet, _ := NewIPCFleet(m.World, shop.LocalFetcher{Mall: m}, []string{"ES", "US"}, 2)
	srv := New("ms-test", nil)
	srv.IPCs = fleet
	srv.DB = db

	req, url := buildCheck(t, m, "abercrombie.com", "job-db")
	if err := srv.StartCheck(req); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.WaitResults("job-db", 5*time.Second); err != nil {
		t.Fatal(err)
	}

	reqs, err := db.SelectCtx(context.Background(), store.Query{Table: "requests", Eq: map[string]any{"job_id": "job-db"}})
	if err != nil || len(reqs) != 1 {
		t.Fatalf("requests = %v, %v", reqs, err)
	}
	resps, err := db.SelectCtx(context.Background(), store.Query{Table: "responses", Eq: map[string]any{"job_id": "job-db"}})
	if err != nil || len(resps) != 2 {
		t.Fatalf("responses = %d, %v", len(resps), err)
	}
	// DiffStorage: the stored diff reconstructs a page containing a price,
	// and it is smaller than the initiator copy.
	var script []string
	if err := jsonUnmarshal(resps[0]["html_diff"].(string), &script); err != nil {
		t.Fatal(err)
	}
	page, err := Apply(req.InitiatorHTML, script)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, "price") {
		t.Error("reconstructed page lost the price")
	}
	_ = url
}

func jsonUnmarshal(s string, v any) error {
	return json.Unmarshal([]byte(s), v)
}

func TestOverWireCheckAndPoll(t *testing.T) {
	netw := transport.NewInproc()
	m := shop.NewMall(shop.MallConfig{Seed: 6, NumDomains: 20, NumLocationPD: 5, NumAlexa: 5})
	fleet, _ := NewIPCFleet(m.World, shop.LocalFetcher{Mall: m}, []string{"ES", "US", "GB"}, 2)
	srv := New("", nil)
	srv.IPCs = fleet
	lis, _ := netw.Listen("")
	rpc := NewRPCServer(srv, lis)
	go rpc.Serve()
	defer rpc.Close()

	cli, err := DialMeasurement(netw, rpc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	req, _ := buildCheck(t, m, "suitsupply.com", "job-wire")
	if err := cli.CheckCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rows, err := cli.WaitResultsCtx(ctx, "job-wire")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Errorf("rows = %d", len(rows))
	}
	if err := cli.CheckCtx(context.Background(), req); err == nil || !transport.IsRemote(err) {
		t.Errorf("duplicate over wire = %v", err)
	}
}

func TestExtractRowLowConfidence(t *testing.T) {
	srv := New("ms", nil)
	html := `<html><body><span class="price">$699</span></body></html>`
	doc := htmlx.Parse(html)
	path, _ := htmlx.BuildTagsPath(doc.FindByClass("price")[0])
	row := srv.extractRow(&CheckRequest{Currency: "EUR", TagsPath: path}, "shop.example", html, ResultRow{Source: "x"})
	if row.Confidence != "low" {
		t.Errorf("confidence = %s (ambiguous $)", row.Confidence)
	}
	if row.Currency != "USD" {
		t.Errorf("currency = %s", row.Currency)
	}
	if row.Converted >= row.Amount {
		t.Errorf("USD->EUR should shrink: %v -> %v", row.Amount, row.Converted)
	}
}

func TestExtractRowFailures(t *testing.T) {
	srv := New("ms", nil)
	goodDoc := htmlx.Parse(`<html><body><span class="price">EUR10</span></body></html>`)
	path, _ := htmlx.BuildTagsPath(goodDoc.FindByClass("price")[0])
	// Page without the node.
	row := srv.extractRow(&CheckRequest{Currency: "EUR", TagsPath: path},
		"shop.example", `<html><body><p>gone</p></body></html>`, ResultRow{})
	if row.Err == "" {
		t.Error("missing node must set Err")
	}
	// Node with no digits.
	row = srv.extractRow(&CheckRequest{Currency: "EUR", TagsPath: path},
		"shop.example", `<html><body><span class="price">sold out</span></body></html>`, ResultRow{})
	if row.Err == "" {
		t.Error("non-price text must set Err")
	}
}

func BenchmarkExtractRow(b *testing.B) {
	m := shop.NewMall(shop.MallConfig{Seed: 7, NumDomains: 20, NumLocationPD: 5, NumAlexa: 5})
	s, _ := m.Shop("chegg.com")
	url := s.ProductURL(s.Products()[0].SKU)
	ip, _ := m.World.RandomIP(rand.New(rand.NewSource(2)), "ES", "")
	html := m.Fetch(&shop.FetchRequest{URL: url, IP: ip.String(), Nonce: 1}).HTML
	doc := htmlx.Parse(html)
	path, _ := htmlx.BuildTagsPath(doc.FindByClass("product")[0].FindByClass("price")[0])
	srv := New("ms", nil)
	req := &CheckRequest{Currency: "EUR", TagsPath: path}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := srv.extractRow(req, "chegg.com", html, ResultRow{})
		if row.Err != "" {
			b.Fatal(row.Err)
		}
	}
}

// BenchmarkExtractRowCached is BenchmarkExtractRow with the parse cache
// attached: repeated extraction over a shop template hits the DOM LRU and
// the tier memo instead of re-parsing.
func BenchmarkExtractRowCached(b *testing.B) {
	m := shop.NewMall(shop.MallConfig{Seed: 7, NumDomains: 20, NumLocationPD: 5, NumAlexa: 5})
	s, _ := m.Shop("chegg.com")
	url := s.ProductURL(s.Products()[0].SKU)
	ip, _ := m.World.RandomIP(rand.New(rand.NewSource(2)), "ES", "")
	html := m.Fetch(&shop.FetchRequest{URL: url, IP: ip.String(), Nonce: 1}).HTML
	doc := htmlx.Parse(html)
	path, _ := htmlx.BuildTagsPath(doc.FindByClass("product")[0].FindByClass("price")[0])
	srv := New("ms", nil)
	srv.Cache = htmlx.NewCache(0, 0)
	req := &CheckRequest{Currency: "EUR", TagsPath: path}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := srv.extractRow(req, "chegg.com", html, ResultRow{})
		if row.Err != "" {
			b.Fatal(row.Err)
		}
	}
}
