package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/measurement"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/store"
)

func checkSources(sys *System) (fanout, coalesced, cached int64) {
	src := func(s string) int64 {
		return sys.Metrics().Counter("sheriff_core_check_source_total", "source", s).Value()
	}
	return src(coordinator.SourceFanout), src(coordinator.SourceCoalesced), src(coordinator.SourceCached)
}

func attachFallbacks(sys *System, reason string) int64 {
	return sys.Metrics().Counter("sheriff_core_attach_fallback_total", "reason", reason).Value()
}

func fanoutsStarted(sys *System) int64 {
	return sys.Metrics().Counter("sheriff_measurement_checks_started_total").Value()
}

// wantValid fails unless res is a whole result page for user: their own
// "You" row and nobody else's, and an error-free row from every vantage.
func wantValid(t *testing.T, res *CheckResult, err error, user string, vantages int) {
	t.Helper()
	if err != nil {
		t.Fatalf("check of %s: %v", user, err)
	}
	initiators := 0
	for _, r := range res.Rows {
		if r.Err != "" || r.Converted <= 0 {
			t.Errorf("%s: row %s: err %q, converted %v", user, r.Source, r.Err, r.Converted)
		}
		if r.Kind == "initiator" {
			initiators++
			if r.PeerID != user || r.Source != "You" {
				t.Errorf("%s was shown the initiator row of %q", user, r.PeerID)
			}
		}
	}
	if initiators != 1 {
		t.Errorf("%s: %d initiator rows, want 1", user, initiators)
	}
	if len(res.Rows) != vantages+1 {
		t.Errorf("%s: %d rows, want %d vantages and the user's own", user, len(res.Rows), vantages)
	}
}

// TestCrowdOfIdenticalChecksFansOutOnce: sixty-four users of one country
// ask about one product at the same moment. One of them measures; the rest
// are attached to that job. Everybody gets a whole result page with their
// own "You" row on top.
func TestCrowdOfIdenticalChecksFansOutOnce(t *testing.T) {
	sys := newSystem(t) // 6 IPCs, up to 5 PPCs
	users := addUsers(t, sys, "ES", 64)
	s, _ := sys.Mall.Shop("steampowered.com")
	url := s.ProductURL(s.Products()[0].SKU)
	visits0 := s.Visits()
	pages0 := sys.Metrics().Counter("sheriff_peer_pages_served_total").Value()

	results := make([]*CheckResult, len(users))
	errs := make([]error, len(users))
	var wg sync.WaitGroup
	for i := range users {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sys.PriceCheckContext(context.Background(), users[i].ID, url)
		}(i)
	}
	wg.Wait()

	const ipcs, ppcs = 6, 5
	jobs := map[string]int{}
	for i, u := range users {
		wantValid(t, results[i], errs[i], u.ID, ipcs+ppcs)
		jobs[results[i].JobID]++
	}
	if len(jobs) != 1 {
		t.Errorf("results name %d jobs, want one: %v", len(jobs), jobs)
	}
	if n := fanoutsStarted(sys); n != 1 {
		t.Errorf("fan-outs started = %d, want 1", n)
	}
	// Every user loaded the page once; one check's vantages loaded it too.
	if got, want := s.Visits()-visits0, int64(len(users)+ipcs+ppcs); got != want {
		t.Errorf("shop served %d pages, want %d (64 browses and one fan-out)", got, want)
	}
	if got := sys.Metrics().Counter("sheriff_peer_pages_served_total").Value() - pages0; got != ppcs {
		t.Errorf("peers served %d pages, want %d (one fan-out)", got, ppcs)
	}
	fanout, coalesced, cached := checkSources(sys)
	if fanout != 1 || fanout+coalesced+cached != int64(len(users)) {
		t.Errorf("sources fanout/coalesced/cached = %d/%d/%d, want 1 fan-out and %d in all", fanout, coalesced, cached, len(users))
	}
	if n := sys.Metrics().Counter("sheriff_core_checks_total").Value(); n != fanout+coalesced+cached {
		t.Errorf("sources sum to %d, checks to %d", fanout+coalesced+cached, n)
	}
}

// TestDifferentQuestionsFanOutOnTheirOwn: a check is only answered by
// another when the vantage rows would be the same — same country's PPCs,
// same display currency, same day — and a watch run never is, though what
// it measured answers the users after it.
func TestDifferentQuestionsFanOutOnTheirOwn(t *testing.T) {
	sys := newSystem(t)
	es := addUsers(t, sys, "ES", 3)
	us := addUsers(t, sys, "US", 3)
	url := productURL(t, sys, "steampowered.com", 0)
	ctx := context.Background()
	want := func(what string, res *CheckResult, err error, source string) *CheckResult {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if res.Source != source {
			t.Errorf("%s: source %q (job %s), want %q", what, res.Source, res.JobID, source)
		}
		return res
	}

	res, err := sys.PriceCheckContext(ctx, es[0].ID, url)
	first := want("first check", res, err, coordinator.SourceFanout)
	settle(t, sys)
	res, err = sys.PriceCheckContext(ctx, es[1].ID, url)
	if dup := want("the same question", res, err, coordinator.SourceCached); dup.JobID != first.JobID {
		t.Errorf("duplicate answered from job %s, want %s", dup.JobID, first.JobID)
	}
	res, err = sys.PriceCheckContext(ctx, us[0].ID, url)
	fromUS := want("another country", res, err, coordinator.SourceFanout)
	res, err = sys.PriceCheckCurrencyContext(ctx, es[1].ID, url, "USD")
	want("another currency", res, err, coordinator.SourceFanout)
	sys.AdvanceDay(1)
	res, err = sys.PriceCheckContext(ctx, es[2].ID, url)
	want("another day", res, err, coordinator.SourceFanout)

	// The watchdog lives in the US. Its run measures for itself although
	// a US user's identical check finished a moment ago — and then answers
	// the next US user.
	res, err = sys.PriceCheckContext(ctx, us[1].ID, url)
	want("US after the day advanced", res, err, coordinator.SourceFanout)
	uid, err := sys.ensureWatchUser()
	if err != nil {
		t.Fatal(err)
	}
	res, err = sys.priceCheckOrigin(ctx, uid, url, "EUR", "watch")
	watch := want("watch run", res, err, coordinator.SourceFanout)
	if watch.JobID == fromUS.JobID {
		t.Error("the watch run reused a user's job")
	}
	settle(t, sys)
	res, err = sys.PriceCheckContext(ctx, us[2].ID, url)
	if after := want("US user after the watch run", res, err, coordinator.SourceCached); after.JobID != watch.JobID {
		t.Errorf("answered from job %s, want the watch run's %s", after.JobID, watch.JobID)
	}
	if n := fanoutsStarted(sys); n != 6 {
		t.Errorf("fan-outs started = %d, want 6", n)
	}
}

// TestAttachedCheckStoresNothing: what an attached check returns reads back
// from the store under its JobID, and it adds no request, no response row
// and no history point of its own.
func TestAttachedCheckStoresNothing(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 4)
	url := productURL(t, sys, "steampowered.com", 0)
	ctx := context.Background()
	src, err := sys.PriceCheckContext(ctx, users[0].ID, url)
	wantValid(t, src, err, users[0].ID, 6+3)

	count := func(table string) int {
		rows, err := sys.DB().SelectCtx(ctx, store.Query{Table: table})
		if err != nil {
			t.Fatal(err)
		}
		return len(rows)
	}
	points := func() int {
		n := 0
		for _, key := range sys.History().Series() {
			if key.URL == url {
				n += sys.History().Len(key)
			}
		}
		return n
	}
	settle(t, sys)
	reqs, resps, pts := count("requests"), count("responses"), points()
	if pts == 0 {
		t.Fatal("the fan-out appended no history points")
	}

	att, err := sys.PriceCheckContext(ctx, users[1].ID, url)
	wantValid(t, att, err, users[1].ID, 6+3)
	if att.Source != coordinator.SourceCached || att.JobID != src.JobID {
		t.Fatalf("second check: source %q job %s, want cached %s", att.Source, att.JobID, src.JobID)
	}
	stored, err := sys.DB().SelectCtx(ctx, store.Query{Table: measurement.ResponsesTable.Name, Eq: map[string]any{"job_id": att.JobID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != len(att.Rows)-1 {
		t.Errorf("%d stored responses for %s, the user was shown %d vantage rows", len(stored), att.JobID, len(att.Rows)-1)
	}
	var spread measurement.SpreadResult
	if err := sys.DB().CallProcCtx(ctx, "price_spread", att.JobID, &spread); err != nil || spread.Responses != len(att.Rows)-1 {
		t.Errorf("price_spread(%s) = %+v, %v; want %d responses", att.JobID, spread, err, len(att.Rows)-1)
	}
	if r, p, h := count("requests"), count("responses"), points(); r != reqs || p != resps || h != pts {
		t.Errorf("the attached check stored something: requests %d→%d, responses %d→%d, history points %d→%d", reqs, r, resps, p, pts, h)
	}
	if !strings.Contains(FormatResult(att), "as of 0 s ago (job "+src.JobID+", cached)") {
		t.Errorf("result page does not say where the rows came from:\n%s", FormatResult(att))
	}
	if strings.Contains(FormatResult(src), "as of") {
		t.Errorf("a fan-out's result page carries an as-of note:\n%s", FormatResult(src))
	}
	// The attach left one span naming its source in the check's trace.
	found := false
	for _, tv := range sys.Tracer().Recent() {
		if sp := findSpan(tv.Spans, "attach"); sp != nil {
			found = true
			if sp.Attrs["source_job"] != src.JobID || sp.Attrs["age_ms"] == "" {
				t.Errorf("attach span attrs = %v", sp.Attrs)
			}
		}
	}
	if !found {
		t.Error("no attach span in the recent traces")
	}
}

// pricedBy is a pricing strategy the test steers while the shop serves:
// a multiplier on every price, and a gate that holds fetches from one
// country until it is opened.
type pricedBy struct {
	factor atomic.Uint64 // math.Float64bits
	hold   string
	gate   chan struct{}
	once   sync.Once
}

func newPricedBy(hold string) *pricedBy {
	p := &pricedBy{hold: hold, gate: make(chan struct{})}
	p.factor.Store(math.Float64bits(1))
	return p
}

func (p *pricedBy) Name() string { return "test" }

func (p *pricedBy) Adjust(price float64, ctx *shop.Context) float64 {
	if p.hold != "" && ctx.Country == p.hold {
		<-p.gate
	}
	return price * math.Float64frombits(p.factor.Load())
}

func (p *pricedBy) set(f float64) { p.factor.Store(math.Float64bits(f)) }
func (p *pricedBy) open()         { p.once.Do(func() { close(p.gate) }) }

func ipcPrice(t *testing.T, res *CheckResult) float64 {
	t.Helper()
	for _, r := range res.Rows {
		if r.Kind == "ipc" && r.Country == "DE" {
			return r.Converted
		}
	}
	t.Fatalf("no DE IPC row in %+v", res.Rows)
	return 0
}

// TestVerdictNeverOutlivesItsTTL: a shop doubles its price in the middle of
// a stream of identical checks. No check is ever answered by a verdict
// older than VerdictTTL at the time it asked, AsOf tells the user how old
// their rows are, and once the TTL has passed since the jump everybody sees
// the new price.
func TestVerdictNeverOutlivesItsTTL(t *testing.T) {
	sys := newSystem(t)
	const ttl = 400 * time.Millisecond
	sys.Coord.VerdictTTL = ttl
	users := addUsers(t, sys, "ES", 4)
	victim := plainShop(t, sys)
	pricing := newPricedBy("")
	victim.SetStrategy(pricing)
	url := victim.ProductURL(victim.Products()[0].SKU)
	ctx := context.Background()

	check := func(i int) (*CheckResult, time.Time) {
		t.Helper()
		asked := time.Now()
		res, err := sys.PriceCheckContext(ctx, users[i%len(users)].ID, url)
		wantValid(t, res, err, users[i%len(users)].ID, 6+3)
		if age := asked.Sub(res.AsOf); age > ttl {
			t.Errorf("check %d (%s, job %s) was answered by rows %v old when it asked; the TTL is %v", i, res.Source, res.JobID, age, ttl)
		}
		return res, asked
	}
	first, asked := check(0)
	old := ipcPrice(t, first)
	if first.Source != coordinator.SourceFanout || first.AsOf.Before(asked) || first.AsOf.After(time.Now()) {
		t.Fatalf("first check: source %q, as of %v", first.Source, first.AsOf)
	}
	settle(t, sys)
	second, _ := check(1)
	if second.Source != coordinator.SourceCached || second.JobID != first.JobID {
		t.Fatalf("second check: source %q job %s, want cached %s", second.Source, second.JobID, first.JobID)
	}
	// AsOf is the source's completion, not the attach: the Coordinator
	// heard job_done within moments of the first check returning.
	if d := second.AsOf.Sub(first.AsOf); d < -5*time.Millisecond || d > 50*time.Millisecond {
		t.Errorf("cached AsOf is %v from the source's completion", d)
	}

	pricing.set(2)
	jumped := time.Now()
	byJob := map[string]float64{first.JobID: old}
	sawCachedOld, sawNew := false, false
	for i := 2; time.Since(jumped) < 3*ttl; i++ {
		res, asked := check(i)
		price := ipcPrice(t, res)
		isNew := price > 1.5*old
		if prev, ok := byJob[res.JobID]; ok && prev != price {
			t.Errorf("job %s showed %v and now %v", res.JobID, prev, price)
		}
		byJob[res.JobID] = price
		switch {
		case res.Source == coordinator.SourceFanout && !isNew:
			t.Errorf("check %d fanned out after the jump and saw the old price %v", i, price)
		case asked.Sub(jumped) > ttl && !isNew:
			t.Errorf("check %d asked %v after the jump and was still shown the old price (TTL %v)", i, asked.Sub(jumped), ttl)
		}
		// The user's own row is always live.
		if you := res.Rows[0]; you.Kind != "initiator" || you.Converted < 1.5*old*0.9 {
			t.Errorf("check %d: own row %+v does not show the new price", i, you)
		}
		sawCachedOld = sawCachedOld || (res.Source == coordinator.SourceCached && !isNew)
		sawNew = sawNew || isNew
		time.Sleep(5 * time.Millisecond)
	}
	if !sawCachedOld || !sawNew {
		t.Errorf("the run did not cover both sides of the TTL: cached-old %v, new %v", sawCachedOld, sawNew)
	}
}

// newFallbackSystem is a one-server deployment whose steampowered.com
// holds fetches from Japan — an IPC-only country here — behind a gate:
// a fan-out started while it is closed stays in flight.
func newFallbackSystem(t *testing.T, deadline time.Duration) (*System, []*User, string, *pricedBy) {
	t.Helper()
	mall := shop.NewMall(shop.MallConfig{Seed: 9, NumDomains: 40, NumLocationPD: 12, NumAlexa: 5, IncludePDIPD: true})
	sys, err := NewSystem(Config{
		Mall:               mall,
		MeasurementServers: 1,
		IPCCountries:       []string{"ES", "US", "JP"},
		PPCTimeout:         5 * time.Second,
		CheckDeadline:      deadline,
		Seed:               9,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	s, _ := sys.Mall.Shop("steampowered.com")
	pricing := newPricedBy("JP")
	s.SetStrategy(pricing)
	t.Cleanup(pricing.open)
	return sys, addUsers(t, sys, "ES", 4), s.ProductURL(s.Products()[0].SKU), pricing
}

// wantFallback runs user's check of url, which the index places on a source
// that cannot be shared, and requires one counted fallback and a whole
// result from a fan-out of the check's own.
func wantFallback(t *testing.T, sys *System, user *User, url, reason, sourceJob string) {
	t.Helper()
	started := fanoutsStarted(sys)
	res, err := sys.PriceCheckContext(context.Background(), user.ID, url)
	wantValid(t, res, err, user.ID, 3+3)
	if res.Source != coordinator.SourceFanout || res.JobID == sourceJob {
		t.Errorf("after the fallback: source %q, job %s (the unshareable source was %s)", res.Source, res.JobID, sourceJob)
	}
	for _, r := range []string{"gone", "partial", "canceled", "unreachable"} {
		want := int64(0)
		if r == reason {
			want = 1
		}
		if n := attachFallbacks(sys, r); n != want {
			t.Errorf("attach fallbacks{reason=%s} = %d, want %d", r, n, want)
		}
	}
	if n := fanoutsStarted(sys) - started; n != 1 {
		t.Errorf("the fallback started %d fan-outs, want exactly 1", n)
	}
	fanout, coalesced, cached := checkSources(sys)
	if total := sys.Metrics().Counter("sheriff_core_checks_total").Value(); fanout+coalesced+cached != total {
		t.Errorf("sources %d/%d/%d do not sum to the %d checks", fanout, coalesced, cached, total)
	}
	// The fallback took the key over: the next duplicate attaches to it.
	next, err := sys.PriceCheckContext(context.Background(), user.ID, url)
	if err != nil || next.Source == coordinator.SourceFanout || next.JobID != res.JobID {
		t.Errorf("check after the fallback: %+v, %v; want attached to %s", next, err, res.JobID)
	}
}

func TestCanceledSourceIsNotShared(t *testing.T) {
	sys, users, url, pricing := newFallbackSystem(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	type out struct {
		res *CheckResult
		err error
	}
	src := make(chan out, 1)
	go func() {
		res, err := sys.PriceCheckContext(ctx, users[0].ID, url)
		src <- out{res, err}
	}()
	waitUntil(t, "the source to be in flight", func() bool { return sys.Coord.PendingJobs() == 1 })

	// A duplicate joins the source while it runs, and is parked on it when
	// the source's caller walks away.
	dup := make(chan out, 1)
	go func() {
		res, err := sys.PriceCheckContext(context.Background(), users[1].ID, url)
		dup <- out{res, err}
	}()
	waitUntil(t, "the duplicate to attach", func() bool {
		return sys.Metrics().Gauge("sheriff_rpc_inflight", "fabric", "inproc").Value() >= 2
	})
	cancel()
	got := <-src
	if !errors.Is(got.err, context.Canceled) || got.res == nil || got.res.JobID == "" {
		t.Fatalf("canceled source returned %+v, %v; want its partial rows and the cancellation", got.res, got.err)
	}
	pricing.open()
	d := <-dup
	wantValid(t, d.res, d.err, users[1].ID, 3+3)
	if d.res.Source != coordinator.SourceFanout || d.res.JobID == got.res.JobID {
		t.Errorf("the parked duplicate: source %q job %s", d.res.Source, d.res.JobID)
	}
	if n := attachFallbacks(sys, "canceled"); n != 1 {
		t.Errorf("attach fallbacks{reason=canceled} = %d, want 1", n)
	}
}

func TestDeadlineCutSourceIsNotShared(t *testing.T) {
	sys, users, url, pricing := newFallbackSystem(t, 120*time.Millisecond)
	res, err := sys.PriceCheckContext(context.Background(), users[0].ID, url)
	if err != nil || len(res.Rows) >= 1+3+3 {
		t.Fatalf("source: %d rows, %v; want a check cut short of its JP vantage", len(res.Rows), err)
	}
	pricing.open()
	settle(t, sys)
	wantFallback(t, sys, users[1], url, "partial", res.JobID)
}

func TestRestartedServerAndEvictedCheckAreGone(t *testing.T) {
	t.Run("restart", func(t *testing.T) {
		sys, users, url, pricing := newFallbackSystem(t, 0)
		pricing.open()
		res, err := sys.PriceCheckContext(context.Background(), users[0].ID, url)
		wantValid(t, res, err, users[0].ID, 3+3)

		// The server process dies and comes back on its address, empty.
		settle(t, sys)
		sys.mu.Lock()
		front, old := sys.measRPC[0], sys.meas[0]
		sys.mu.Unlock()
		addr := front.Addr()
		front.Close()
		lis, err := sys.fabric.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		reborn := measurement.New("", nil)
		reborn.Coord, reborn.DB, reborn.IPCs, reborn.Peers = old.Coord, old.DB, old.IPCs, old.Peers
		reborn.Metrics, reborn.Tracer, reborn.Cache, reborn.Retry = old.Metrics, old.Tracer, old.Cache, old.Retry
		fresh := measurement.NewRPCServer(reborn, lis)
		go fresh.Serve()
		sys.mu.Lock()
		sys.measRPC[0], sys.meas[0] = fresh, reborn
		sys.mu.Unlock()

		wantFallback(t, sys, users[1], url, "gone", res.JobID)
	})
	t.Run("evicted", func(t *testing.T) {
		sys, users, url, pricing := newFallbackSystem(t, 0)
		pricing.open()
		sys.meas[0].MaxChecks = 2
		res, err := sys.PriceCheckContext(context.Background(), users[0].ID, url)
		wantValid(t, res, err, users[0].ID, 3+3)
		for i := 1; i <= 2; i++ { // two more checks push the first out of the cache
			if _, err := sys.PriceCheckContext(context.Background(), users[0].ID, productURL(t, sys, "steampowered.com", i)); err != nil {
				t.Fatal(err)
			}
		}
		settle(t, sys)
		wantFallback(t, sys, users[1], url, "gone", res.JobID)
	})
}

// TestUnreachableSourceFallsBackOnce: the server holding the verdict is
// down. The attach fails, the check tries one fan-out of its own — on the
// only, dead, server — and reports that failure instead of hanging.
func TestUnreachableSourceFallsBackOnce(t *testing.T) {
	sys, users, url, pricing := newFallbackSystem(t, 0)
	pricing.open()
	res, err := sys.PriceCheckContext(context.Background(), users[0].ID, url)
	wantValid(t, res, err, users[0].ID, 3+3)
	settle(t, sys)
	sys.mu.Lock()
	front := sys.measRPC[0]
	sys.mu.Unlock()
	front.Close()

	done := make(chan error, 1)
	go func() {
		_, err := sys.PriceCheckContext(context.Background(), users[1].ID, url)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("check succeeded with the only measurement server down")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("check hung on an unreachable source")
	}
	if n := attachFallbacks(sys, "unreachable"); n != 1 {
		t.Errorf("attach fallbacks{reason=unreachable} = %d, want 1", n)
	}
	// The job of the failed fallback was released, not left to collect
	// duplicates.
	if n := sys.Coord.PendingJobs(); n != 0 {
		t.Errorf("pending jobs = %d after the failed fallback, want 0", n)
	}
}

// settle waits until the Coordinator has heard job_done for everything
// scheduled: a check returns when its rows are in, a moment before its
// job's completion is reported, and until then the index still (rightly)
// calls the job in flight.
func settle(t *testing.T, sys *System) {
	t.Helper()
	waitUntil(t, "the coordinator to hear job_done", func() bool { return sys.Coord.PendingJobs() == 0 })
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckKeyIgnoresBannerShifts: the shop injects a banner above the
// product block on some renderings, which moves the block's sibling index
// in the Tags Path. The block carries an id, so both renderings ask the
// same question; a path to another element does not.
func TestCheckKeyIgnoresBannerShifts(t *testing.T) {
	sys := newSystem(t)
	s, _ := sys.Mall.Shop("steampowered.com")
	url := s.ProductURL(s.Products()[0].SKU)
	ip, _ := sys.Mall.World.RandomIP(sys.rng, "ES", "")
	keys := map[string]int{}
	shapes := map[string]bool{}
	for nonce := uint64(0); nonce < 30; nonce++ {
		resp := sys.Mall.Fetch(&shop.FetchRequest{URL: url, IP: ip.String(), Nonce: nonce, Day: 1})
		path, err := SelectPrice(resp.HTML)
		if err != nil {
			t.Fatal(err)
		}
		shapes[fmt.Sprint(path.Steps)] = true
		keys[(&measurement.CheckRequest{URL: url, TagsPath: path, Currency: "EUR", Day: 1}).Key()]++
	}
	if len(shapes) < 2 {
		t.Fatalf("thirty renderings produced %d Tags Path shapes; the test needs the banner to move the path", len(shapes))
	}
	if len(keys) != 1 {
		t.Errorf("thirty renderings of one page produced %d check keys, want 1: %v", len(keys), keys)
	}
}
