package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pricesheriff/internal/measurement"
	"pricesheriff/internal/peer"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/store"
)

// newSystem boots a small deployment with users in Spain.
func newSystem(t *testing.T) *System {
	t.Helper()
	mall := shop.NewMall(shop.MallConfig{Seed: 9, NumDomains: 40, NumLocationPD: 12, NumAlexa: 5, IncludePDIPD: true})
	sys, err := NewSystem(Config{
		Mall:               mall,
		MeasurementServers: 2,
		IPCCountries:       []string{"ES", "ES", "US", "GB", "DE", "JP"},
		PPCTimeout:         5 * time.Second,
		Seed:               9,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func addUsers(t *testing.T, sys *System, country string, n int) []*User {
	t.Helper()
	users := make([]*User, n)
	for i := range users {
		u, err := sys.AddUser(fmt.Sprintf("%s-user-%d", country, i), country, "")
		if err != nil {
			t.Fatal(err)
		}
		users[i] = u
	}
	return users
}

func productURL(t *testing.T, sys *System, domain string, idx int) string {
	t.Helper()
	s, ok := sys.Mall.Shop(domain)
	if !ok {
		t.Fatalf("no shop %s", domain)
	}
	ps := s.Products()
	if idx >= len(ps) {
		t.Fatalf("shop %s has %d products", domain, len(ps))
	}
	return s.ProductURL(ps[idx].SKU)
}

// distinctURLs returns n different product URLs, a shop's whole catalog
// before the next shop's: what a test that wants n real fan-outs checks,
// since identical checks are answered by one.
func distinctURLs(t *testing.T, sys *System, n int) []string {
	t.Helper()
	var urls []string
	for _, d := range sys.Mall.Domains() {
		s, _ := sys.Mall.Shop(d)
		for _, p := range s.Products() {
			if urls = append(urls, s.ProductURL(p.SKU)); len(urls) == n {
				return urls
			}
		}
	}
	t.Fatalf("mall holds %d products, want %d", len(urls), n)
	return nil
}

func TestFullPriceCheckProtocol(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 4)
	url := productURL(t, sys, "steampowered.com", 0)

	res, err := sys.PriceCheckContext(context.Background(), users[0].ID, url)
	if err != nil {
		t.Fatal(err)
	}
	// You + 6 IPCs + 3 PPCs (MaxPPCs=5 but only 3 other ES users).
	if len(res.Rows) != 1+6+3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	kinds := map[string]int{}
	for _, r := range res.Rows {
		kinds[r.Kind]++
		if r.Err != "" {
			t.Errorf("row %s: %s", r.Source, r.Err)
		}
	}
	if kinds["initiator"] != 1 || kinds["ipc"] != 6 || kinds["ppc"] != 3 {
		t.Errorf("kinds = %v", kinds)
	}
	// Location PD is visible across countries.
	prices := map[string]float64{}
	for _, r := range res.Rows {
		if r.Kind == "ipc" {
			prices[r.Country] = r.Converted
		}
	}
	distinct := map[float64]bool{}
	for _, p := range prices {
		distinct[p] = true
	}
	if len(distinct) < 2 {
		t.Errorf("no cross-country variation: %v", prices)
	}
	// The initiator never appears among the PPCs.
	for _, r := range res.Rows {
		if r.Kind == "ppc" && r.PeerID == users[0].ID {
			t.Error("initiator served its own request")
		}
	}
	// The result renders as a Fig. 2 style table.
	text := FormatResult(res)
	if !strings.Contains(text, "You") || !strings.Contains(text, "Converted") {
		t.Errorf("rendered result:\n%s", text)
	}
}

func TestPriceCheckRecordsToDatabase(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 2)
	url := productURL(t, sys, "chegg.com", 0)
	res, err := sys.PriceCheckContext(context.Background(), users[0].ID, url)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := sys.DB().SelectCtx(context.Background(), store.Query{Table: "requests", Eq: map[string]any{"job_id": res.JobID}})
	if err != nil || len(reqs) != 1 {
		t.Fatalf("requests = %v, %v", reqs, err)
	}
	resps, err := sys.DB().SelectCtx(context.Background(), store.Query{Table: "responses", Eq: map[string]any{"job_id": res.JobID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 6+1 { // IPCs + 1 PPC
		t.Errorf("responses = %d", len(resps))
	}
}

func TestPriceCheckUnknownUserAndDomain(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 1)
	if _, err := sys.PriceCheckContext(context.Background(), "ghost", "http://chegg.com/product/x"); err == nil {
		t.Error("unknown user accepted")
	}
	if _, err := sys.PriceCheckContext(context.Background(), users[0].ID, "garbage"); err == nil {
		t.Error("bad URL accepted")
	}
	// A domain outside the mall 404s at navigation time; a mall domain
	// scrubbed from the whitelist is rejected by the Coordinator and the
	// rejection is logged for manual inspection.
	if _, err := sys.PriceCheckContext(context.Background(), users[0].ID, "http://not-in-mall.com/product/x"); err == nil {
		t.Error("unknown domain accepted")
	}
	if _, err := sys.Coord.NewJob(context.Background(), "evil.example", users[0].ID); err == nil {
		t.Error("unwhitelisted domain accepted")
	}
	if rej := sys.Coord.Whitelist.Rejected(); len(rej) != 1 || rej[0] != "evil.example" {
		t.Errorf("rejection log = %v", rej)
	}
}

func TestJobsBalanceAcrossServers(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 2)
	for i := 0; i < 4; i++ {
		if _, err := sys.PriceCheckContext(context.Background(), users[i%2].ID, productURL(t, sys, "chegg.com", i)); err != nil {
			t.Fatal(err)
		}
	}
	// After completion all pending counters settle back to zero. A
	// heartbeat that raced JobDone may leave a stale count until the next
	// reconciliation, so poll briefly.
	deadline := time.Now().Add(3 * time.Second)
	for {
		settled := true
		for _, info := range sys.Coord.Servers.Snapshot() {
			if info.Pending != 0 || !info.Online {
				settled = false
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters never settled: %+v", sys.Coord.Servers.Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDynamicServerAttach(t *testing.T) {
	sys := newSystem(t)
	if sys.MeasurementServers() != 2 {
		t.Fatalf("initial servers = %d", sys.MeasurementServers())
	}
	if err := sys.AddMeasurementServer(); err != nil {
		t.Fatal(err)
	}
	if sys.MeasurementServers() != 3 {
		t.Errorf("servers = %d", sys.MeasurementServers())
	}
	if got := len(sys.Coord.Servers.Snapshot()); got != 3 {
		t.Errorf("coordinator sees %d servers", got)
	}
}

func TestAmazonLoggedInVATDetectedWithinCountry(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 3)
	// One peer logged in at amazon: their own-state remote fetches carry
	// VAT-inclusive prices.
	users[1].Browser.SetLoggedIn("amazon.com", true)
	// Pick a product in the VAT-displaying (sold-by-amazon) subset.
	az, _ := sys.Mall.Shop("amazon.com")
	vat := az.Strategy.(shop.VAT)
	url := ""
	for _, p := range az.Products() {
		if vat.Applies("amazon.com", p.SKU) {
			url = az.ProductURL(p.SKU)
			break
		}
	}
	if url == "" {
		t.Skip("no VAT-subset product in this seed")
	}

	res, err := sys.PriceCheckContext(context.Background(), users[0].ID, url)
	if err != nil {
		t.Fatal(err)
	}
	var guest, logged float64
	for _, r := range res.Rows {
		if r.Kind != "ppc" || r.Err != "" {
			continue
		}
		if r.PeerID == users[1].ID {
			logged = r.Converted
		} else if guest == 0 {
			guest = r.Converted
		}
	}
	if guest == 0 || logged == 0 {
		t.Fatalf("missing PPC rows: %+v", res.Rows)
	}
	ratio := logged / guest
	if ratio < 1.15 || ratio > 1.25 {
		t.Errorf("logged-in/guest ratio = %v, want ≈1.21 (ES VAT)", ratio)
	}
}

func TestTrainDoppelgangersAndSwap(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 6)
	basis := []string{"news.example", "video.example", "social.example", "mail.example"}
	// Donated histories with two clear behavioural groups.
	for i, u := range users {
		u.DonatesHistory = true
		for v := 0; v < 10; v++ {
			if i%2 == 0 {
				u.Browser.RecordWebVisit("news.example", 1)
				u.Browser.RecordWebVisit("mail.example", 1)
			} else {
				u.Browser.RecordWebVisit("video.example", 1)
				u.Browser.RecordWebVisit("social.example", 1)
			}
		}
	}
	out, err := sys.TrainDoppelgangers(2, basis, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Centroids) != 2 {
		t.Fatalf("centroids = %d", len(out.Centroids))
	}
	// The two behavioural groups map to different clusters.
	if out.Assign[0] == out.Assign[1] {
		t.Error("distinct behaviours clustered together")
	}
	if out.Assign[0] != out.Assign[2] || out.Assign[1] != out.Assign[3] {
		t.Error("same behaviours split")
	}
	if sys.Doppelgangers() == nil || sys.Doppelgangers().Count() != 2 {
		t.Error("doppelganger fleet not built")
	}

	// Drive a peer past its budget: the PPC must serve with doppelganger
	// state.
	url := productURL(t, sys, "chegg.com", 0)
	u1 := users[1]
	if _, err := u1.Browser.BrowseProduct(context.Background(), u1.Node.Fetcher, url, 0); err != nil {
		t.Fatal(err)
	}
	resp := u1.Node.ServePage(context.Background(), &peer.PageRequest{URL: url, Day: 0})
	if resp.Mode != "doppelganger" {
		t.Errorf("mode = %s, want doppelganger", resp.Mode)
	}
}

func TestDoppelgangerModeOverProtocol(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 4)
	basis := []string{"news.example", "video.example"}
	for i, u := range users {
		u.DonatesHistory = true
		for v := 0; v <= i; v++ {
			u.Browser.RecordWebVisit("news.example", 0)
		}
	}
	if _, err := sys.TrainDoppelgangers(2, basis, 2); err != nil {
		t.Fatal(err)
	}
	url := productURL(t, sys, "chegg.com", 0)
	// Every non-initiator user visits chegg once: budget 0 -> doppelganger.
	for _, u := range users[1:] {
		if _, err := u.Browser.BrowseProduct(context.Background(), u.Node.Fetcher, url, 0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sys.PriceCheckContext(context.Background(), users[0].ID, url)
	if err != nil {
		t.Fatal(err)
	}
	doppPPCs := 0
	for _, r := range res.Rows {
		if r.Kind == "ppc" && r.Mode == "doppelganger" {
			doppPPCs++
		}
	}
	if doppPPCs == 0 {
		t.Errorf("no PPC used doppelganger state: %+v", res.Rows)
	}
}

func TestTrainDoppelgangersValidation(t *testing.T) {
	sys := newSystem(t)
	addUsers(t, sys, "ES", 2)
	if _, err := sys.TrainDoppelgangers(5, []string{"a"}, 1); err == nil {
		t.Error("k > donors accepted")
	}
}

func TestSelectPrice(t *testing.T) {
	html := `<html><body><div class="product"><span class="price">EUR10</span></div><div class="rec"><span class="price">EUR99</span></div></body></html>`
	path, err := SelectPrice(html)
	if err != nil {
		t.Fatal(err)
	}
	if path.Depth() < 3 {
		t.Errorf("path depth = %d", path.Depth())
	}
	if _, err := SelectPrice("<html><body>no prices</body></html>"); err != ErrNoPrice {
		t.Errorf("want ErrNoPrice, got %v", err)
	}
	// Fallback: price outside a product block still selectable.
	if _, err := SelectPrice(`<html><body><span class="price">EUR5</span></body></html>`); err != nil {
		t.Errorf("fallback select: %v", err)
	}
}

func TestPDIPDValidationShopDetectable(t *testing.T) {
	// End-to-end watchdog validation: the known-positive PDI-PD retailer
	// must yield a within-country difference between an interested peer
	// and a fresh one.
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 3)
	domain := sys.Mall.PDIPDDomain
	if domain == "" {
		t.Skip("world built without PDI-PD shop")
	}
	url := productURL(t, sys, domain, 0)
	victim := users[1]
	// The victim browses the product category heavily; trackers profile it.
	for i := 0; i < 5; i++ {
		if _, err := victim.Browser.BrowseProduct(context.Background(), victim.Node.Fetcher, url, 0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sys.PriceCheckContext(context.Background(), users[0].ID, url)
	if err != nil {
		t.Fatal(err)
	}
	var victimPrice, otherPrice float64
	for _, r := range res.Rows {
		if r.Kind != "ppc" || r.Err != "" {
			continue
		}
		if r.PeerID == victim.ID {
			victimPrice = r.Converted
		} else if otherPrice == 0 {
			otherPrice = r.Converted
		}
	}
	if victimPrice == 0 || otherPrice == 0 {
		t.Fatalf("missing PPC prices in %+v", res.Rows)
	}
	ratio := victimPrice / otherPrice
	if ratio < 1.10 || ratio > 1.14 {
		t.Errorf("PDI-PD markup = %v, want ≈1.12", ratio)
	}
}

func TestFormatResultRendersErrorsAndAsterisks(t *testing.T) {
	res := &CheckResult{
		JobID: "job-1", URL: "http://x.com/product/1", Currency: "EUR",
		Rows: []measurement.ResultRow{
			{Source: "You", Kind: "initiator", Converted: 10, Original: "EUR10", Confidence: "high"},
			{Source: "ipc-1", Kind: "ipc", Country: "US", City: "Tennessee", Converted: 9.5, Original: "$11", Confidence: "low"},
			{Source: "peer ES", Kind: "ppc", Country: "ES", City: "Madrid", Err: "timeout"},
		},
	}
	text := FormatResult(res)
	if !strings.Contains(text, "*") {
		t.Error("low-confidence asterisk missing")
	}
	if !strings.Contains(text, "timeout") {
		t.Error("error row missing")
	}
	if !strings.Contains(text, "US, Tennessee") {
		t.Error("location naming missing")
	}
}

// TestFormatResultLowConfidenceFootnote: the paper's Fig. 2 rows — a
// low-confidence conversion carries the asterisk, the page ends with the
// footnote that explains it, and an error row shows its error, not a price.
func TestFormatResultLowConfidenceFootnote(t *testing.T) {
	res := &CheckResult{
		JobID: "job-1", URL: "http://digitalrev.com/product/cam", Currency: "EUR",
		Rows: []measurement.ResultRow{
			{Source: "You", Kind: "initiator", Converted: 654, Original: "EUR654", Confidence: "high"},
			{Source: "ipc-1", Kind: "ipc", Country: "US", City: "Tennessee", Converted: 617.65, Original: "$699", Confidence: "low"},
			{Source: "peer ES", Kind: "ppc", Country: "ES", City: "Madrid", Err: "request timed out"},
		},
	}
	text := FormatResult(res)
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines) != 6 { // title, header, 3 rows, footnote
		t.Fatalf("lines = %d:\n%s", len(lines), text)
	}
	if !strings.Contains(lines[3], "EUR 617.65*") {
		t.Errorf("US row lacks the converted value and its asterisk: %q", lines[3])
	}
	if !strings.Contains(lines[4], "peer ES, Madrid") || !strings.Contains(lines[4], "request timed out") {
		t.Errorf("error row = %q", lines[4])
	}
	if lines[5] != "* Currency detection confidence is low. Please double check the result." {
		t.Errorf("footnote = %q", lines[5])
	}
}

func TestFormatResultNoLowConfidenceFootnote(t *testing.T) {
	res := &CheckResult{
		JobID: "job", URL: "http://x.com/product/1", Currency: "EUR",
		Rows: []measurement.ResultRow{{Source: "You", Kind: "initiator", Converted: 10, Original: "EUR10", Confidence: "high"}},
	}
	if text := FormatResult(res); strings.Contains(text, "confidence is low") {
		t.Errorf("footnote without a low-confidence row:\n%s", text)
	}
}

func TestPIIBlacklistRefusesProfilePages(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 1)
	for _, url := range []string{
		"http://chegg.com/product/my-account",
		"http://chegg.com/product/user-PROFILE-page",
		"http://amazon.com/product/checkout-now",
	} {
		if _, err := sys.PriceCheckContext(context.Background(), users[0].ID, url); err != ErrPIIBlacklisted {
			t.Errorf("%s: err = %v, want ErrPIIBlacklisted", url, err)
		}
	}
	hits := sys.PIIBlacklist.Hits()
	if hits["account"] != 1 || hits["profile"] != 1 || hits["checkout"] != 1 {
		t.Errorf("hits = %v", hits)
	}
	// Operators can extend the list at runtime.
	sys.PIIBlacklist.Add("giftcard")
	if _, err := sys.PriceCheckContext(context.Background(), users[0].ID, "http://chegg.com/product/giftcard-1"); err != ErrPIIBlacklisted {
		t.Errorf("runtime pattern not applied: %v", err)
	}
}

func TestRemoveUserStopsRouting(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 3)
	url := productURL(t, sys, "chegg.com", 0)
	if err := sys.RemoveUser(users[1].ID); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveUser(users[1].ID); err == nil {
		t.Error("double removal accepted")
	}
	res, err := sys.PriceCheckContext(context.Background(), users[0].ID, url)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.PeerID == users[1].ID {
			t.Errorf("removed peer still served: %+v", r)
		}
	}
	// Exactly one PPC (the remaining other user) responded.
	ppcs := 0
	for _, r := range res.Rows {
		if r.Kind == "ppc" && r.Err == "" {
			ppcs++
		}
	}
	if ppcs != 1 {
		t.Errorf("ppc rows = %d, want 1", ppcs)
	}
}

func TestConcurrentPriceChecks(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 4)
	urls := []string{
		productURL(t, sys, "chegg.com", 0),
		productURL(t, sys, "jcpenney.com", 0),
		productURL(t, sys, "steampowered.com", 0),
		productURL(t, sys, "amazon.com", 0),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := sys.PriceCheckContext(context.Background(), users[i%4].ID, urls[i%4])
			if err != nil {
				errs <- err
				return
			}
			if len(res.Rows) < 4 {
				errs <- fmt.Errorf("check %d: %d rows", i, len(res.Rows))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
