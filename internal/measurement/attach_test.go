package measurement

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pricesheriff/internal/admit"
	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/transport"
)

// attachFor is the attach a second user sends for job jobID: the same
// question, their own ID, and their own copy of the page (another price).
func attachFor(jobID, url, user string) *CheckRequest {
	page := strings.Replace(pricePage, "EUR10", "EUR12", 1)
	return &CheckRequest{JobID: jobID, URL: url, TagsPath: tagsPathOf(page), InitiatorHTML: page, InitiatorID: user}
}

func checkAttached(t *testing.T, rows []ResultRow, user string) {
	t.Helper()
	if len(rows) != 2 {
		t.Fatalf("attached rows = %+v, want the caller's row and one IPC row", rows)
	}
	if you := rows[0]; you.Kind != "initiator" || you.Source != "You" || you.PeerID != user || you.Amount != 12 {
		t.Errorf("first row = %+v, want %s's own page (EUR12)", you, user)
	}
	if ipc := rows[1]; ipc.Kind != "ipc" || ipc.Amount != 10 || ipc.Err != "" {
		t.Errorf("second row = %+v, want the source job's IPC row (EUR10)", ipc)
	}
	for _, r := range rows {
		if r.PeerID == "user-1" {
			t.Errorf("row %+v carries the source's initiator", r)
		}
	}
}

// TestCheckKeyParts: the key is what makes two checks the same question.
func TestCheckKeyParts(t *testing.T) {
	base := func() *CheckRequest {
		return &CheckRequest{URL: "http://shop.example/product/1", TagsPath: tagsPathOf(pricePage), Currency: "EUR", Day: 3}
	}
	key := base().Key()
	same := map[string]func(*CheckRequest){
		"another spelling of the URL": func(r *CheckRequest) { r.URL = "HTTP://user@Shop.Example:80/product/1" },
		"the default currency":        func(r *CheckRequest) { r.Currency = "" },
		"who asks":                    func(r *CheckRequest) { r.InitiatorID, r.JobID, r.InitiatorHTML = "u", "j", "<html/>" },
	}
	for what, change := range same {
		r := base()
		change(r)
		if r.Key() != key {
			t.Errorf("%s changed the key: %q vs %q", what, r.Key(), key)
		}
	}
	differs := map[string]func(*CheckRequest){
		"another product":  func(r *CheckRequest) { r.URL = "http://shop.example/product/2" },
		"another currency": func(r *CheckRequest) { r.Currency = "USD" },
		"another day":      func(r *CheckRequest) { r.Day = 4 },
		"another element": func(r *CheckRequest) {
			r.TagsPath = tagsPathOf(`<html><body><div class="product"><span class="was">EUR12</span><span class="price">EUR10</span></div></body></html>`)
			r.TagsPath.Steps[len(r.TagsPath.Steps)-1].Class = "was"
		},
		"the second of two alike": func(r *CheckRequest) { r.TagsPath.Steps[len(r.TagsPath.Steps)-1].Index = 1 },
	}
	for what, change := range differs {
		r := base()
		change(r)
		if r.Key() == key {
			t.Errorf("%s left the key unchanged", what)
		}
	}
}

// TestAttachAnswersFromTheCompletedCheck: an attach stores nothing, starts
// nothing, and answers the source job's vantage rows behind the caller's
// own "You" row — in flight (parked until the job finishes) and afterwards.
func TestAttachAnswersFromTheCompletedCheck(t *testing.T) {
	gf := newGatedFetcher("/held/")
	fx := newWaitFixture(t, transport.NewInproc(), gf)
	fx.srv.Tracer = obs.NewTracer(0)
	cli := fx.dial(t)
	ctx := context.Background()
	const url = "http://x.com/held/1"

	if err := cli.CheckCtx(ctx, checkFor("job-src", url)); err != nil {
		t.Fatal(err)
	}
	<-gf.started
	type answer struct {
		rows []ResultRow
		err  error
	}
	inflight := make(chan answer, 1)
	go func() {
		rows, err := cli.AttachCtx(ctx, attachFor("job-src", url, "user-2"), coordinator.SourceCoalesced)
		inflight <- answer{rows, err}
	}()
	select {
	case a := <-inflight:
		t.Fatalf("attach to a running job answered before it finished: %+v, %v", a.rows, a.err)
	case <-time.After(30 * time.Millisecond):
	}
	close(gf.release)
	a := <-inflight
	if a.err != nil {
		t.Fatal(a.err)
	}
	checkAttached(t, a.rows, "user-2")

	rows, err := cli.AttachCtx(ctx, attachFor("job-src", url, "user-3"), coordinator.SourceCached)
	if err != nil {
		t.Fatal(err)
	}
	checkAttached(t, rows, "user-3")

	if n := fx.reg.Counter("sheriff_measurement_checks_started_total").Value(); n != 1 {
		t.Errorf("checks started = %d, want 1 (an attach starts nothing)", n)
	}
	if n := fx.srv.Pending(); n != 0 {
		t.Errorf("pending = %d after everything finished", n)
	}
	// The raw answer carries no span batch: the attaching side records
	// one span of its own.
	resp, err := fx.srv.AttachCheck(ctx, attachFor("job-src", url, "user-4"))
	if err != nil || !resp.Done || resp.Spans != nil {
		t.Errorf("attach answer = done %v, %d spans, %v; want done, no spans", resp.Done, len(resp.Spans), err)
	}
}

// TestAttachBeforeSubmitWaitsForTheJob closes the race between a source's
// ms.check and the ms.attach of a check the Coordinator coalesced onto it:
// the attach that arrives first waits for the submit — no timer, bounded
// by its own context — while an attach to a finished job the server does
// not know is refused at once.
func TestAttachBeforeSubmitWaitsForTheJob(t *testing.T) {
	fx := newWaitFixture(t, transport.NewInproc(), newGatedFetcher(""))
	cli := fx.dial(t)
	ctx := context.Background()
	const url = "http://x.com/p/1"

	// A finished job this server never saw (evicted, or a restart): at once.
	t0 := time.Now()
	_, err := cli.AttachCtx(ctx, attachFor("job-gone", url, "user-2"), coordinator.SourceCached)
	if !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("attach to an unknown finished job = %v, want ErrUnknownJob across the wire", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("refusal took %v", d)
	}

	// In flight at the Coordinator, not yet submitted here: four attaches
	// park, then the submit wakes them all.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", i+2)
			rows, err := cli.AttachCtx(ctx, attachFor("job-late", url, user), coordinator.SourceCoalesced)
			if err == nil && (len(rows) != 2 || rows[0].PeerID != user) {
				err = fmt.Errorf("%s got %+v", user, rows)
			}
			errs <- err
		}(i)
	}
	waitFor(t, 2*time.Second, "the attaches to park", func() bool {
		fx.srv.mu.Lock()
		defer fx.srv.mu.Unlock()
		a := fx.srv.arrivals["job-late"]
		return a != nil && a.waiters == 4
	})
	if err := cli.CheckCtx(ctx, checkFor("job-late", url)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}

	// A parked attach whose caller gives up leaves nothing behind.
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, err := cli.AttachCtx(short, attachFor("job-never", url, "user-2"), coordinator.SourceCoalesced); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("abandoned attach = %v, want the deadline", err)
	}
	waitFor(t, 2*time.Second, "the abandoned rendezvous to be removed", func() bool {
		fx.srv.mu.Lock()
		defer fx.srv.mu.Unlock()
		return len(fx.srv.arrivals) == 0
	})
}

// TestRefusedSubmitWakesParkedAttaches: when admission control sheds the
// source's submit, the attaches waiting for it learn at once that the job
// is not coming.
func TestRefusedSubmitWakesParkedAttaches(t *testing.T) {
	reg := obs.NewRegistry()
	bf := &blockingFetcher{started: make(chan struct{})}
	srv := New("ms", nil)
	srv.CheckDeadline = 30 * time.Second
	srv.Admit = admit.New(admit.Config{Limit: 1}, admit.NewMetrics(reg, "ms"))
	srv.IPCs = []*IPC{{ID: "ipc-00-ES", IP: "10.0.0.2", Country: "ES", Fetcher: bf}}
	if err := srv.StartCheck(checkFor("job-hog", "http://x.com/p/1")); err != nil {
		t.Fatal(err)
	}
	<-bf.started
	defer srv.CancelCheck("job-hog")

	parked := make(chan error, 1)
	go func() {
		req := attachFor("job-shed", "http://x.com/p/2", "user-2")
		req.Origin = coordinator.SourceCoalesced
		_, err := srv.AttachCheck(context.Background(), req)
		parked <- err
	}()
	waitFor(t, 2*time.Second, "the attach to park", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.arrivals["job-shed"] != nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.StartCheckCtx(ctx, checkFor("job-shed", "http://x.com/p/2")); !errors.Is(err, admit.ErrOverload) {
		t.Fatalf("doomed submit = %v, want admit.ErrOverload", err)
	}
	select {
	case err := <-parked:
		if !errors.Is(err, ErrUnknownJob) {
			t.Errorf("parked attach = %v, want ErrUnknownJob", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked attach was not woken by the refused submit")
	}
}

// TestAttachNeverSharesAnIncompleteSource: a check cut by its deadline or
// canceled by its caller keeps answering its own submitter, and nobody else.
func TestAttachNeverSharesAnIncompleteSource(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(fx *waitFixture, cli *Client)
		want error
	}{
		{"deadline", func(fx *waitFixture, cli *Client) {}, ErrSourcePartial},
		{"canceled", func(fx *waitFixture, cli *Client) {
			if err := cli.Cancel(context.Background(), "job-src"); err != nil {
				panic(err)
			}
		}, ErrSourceCanceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gf := newGatedFetcher("/held/")
			fx := newWaitFixture(t, transport.NewInproc(), gf)
			if tc.name == "deadline" {
				fx.srv.CheckDeadline = 60 * time.Millisecond
			}
			cli := fx.dial(t)
			ctx := context.Background()
			const url = "http://x.com/held/1"
			if err := cli.CheckCtx(ctx, checkFor("job-src", url)); err != nil {
				t.Fatal(err)
			}
			<-gf.started
			parked := make(chan error, 1)
			go func() {
				_, err := cli.AttachCtx(ctx, attachFor("job-src", url, "user-2"), coordinator.SourceCoalesced)
				parked <- err
			}()
			tc.cut(fx, cli)
			if err := <-parked; !errors.Is(err, tc.want) {
				t.Errorf("attach parked through the cut = %v, want %v", err, tc.want)
			}
			if _, err := cli.AttachCtx(ctx, attachFor("job-src", url, "user-3"), coordinator.SourceCached); !errors.Is(err, tc.want) {
				t.Errorf("attach after the cut = %v, want %v", err, tc.want)
			}
			// The submitter still reads its partial rows.
			resp, err := cli.ResultsCtx(ctx, "job-src", 0)
			if err != nil || !resp.Done || len(resp.Rows) == 0 {
				t.Errorf("submitter's own results = %+v, %v", resp, err)
			}
		})
	}
}

// TestAttachCountsAsATouch: eviction is by idleness, and an attach is a
// use. At the cap the check nobody touched goes, not the one duplicates
// keep attaching to; past the TTL an attached-to check is still there.
func TestAttachCountsAsATouch(t *testing.T) {
	srv := New("ms", nil)
	srv.CheckTTL = time.Hour
	srv.MaxChecks = 3
	attach := func(jobID string) error {
		_, err := srv.AttachCheck(context.Background(), attachFor(jobID, "http://x.com/p/1", "user-2"))
		return err
	}
	runQuickCheck(t, srv, "job-hot")
	runQuickCheck(t, srv, "job-cold")
	runQuickCheck(t, srv, "job-3")
	if err := attach("job-hot"); err != nil {
		t.Fatal(err)
	}
	runQuickCheck(t, srv, "job-4") // at the cap: evicts the longest idle
	if err := attach("job-hot"); err != nil {
		t.Errorf("the attached-to check was evicted from under its index entry: %v", err)
	}
	if err := attach("job-cold"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("attach to the untouched check = %v, want ErrUnknownJob (evicted)", err)
	}

	srv.CheckTTL = 60 * time.Millisecond
	for i := 0; i < 4; i++ {
		time.Sleep(25 * time.Millisecond)
		if err := attach("job-hot"); err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		runQuickCheck(t, srv, fmt.Sprintf("job-churn-%d", i))
	}
	if err := attach("job-hot"); err != nil {
		t.Errorf("a check attached to every 25 ms was evicted at a 60 ms TTL: %v", err)
	}
}

// TestEvictionKeepsTheMostRecentlyUsed drives the idle list through a long
// mixed sequence and checks it against the definition: at most MaxChecks
// cached, and whatever was evicted had been idle at least as long as
// everything kept.
func TestEvictionKeepsTheMostRecentlyUsed(t *testing.T) {
	srv := New("ms", nil)
	srv.CheckTTL = time.Hour
	srv.MaxChecks = 8
	lastUse := map[string]int{}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("job-%03d", i)
		runQuickCheck(t, srv, id)
		lastUse[id] = i
		if old := fmt.Sprintf("job-%03d", i-i%5); i%3 == 0 {
			if _, err := srv.Results(old, 0); err == nil {
				lastUse[old] = i
			}
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.checks) > srv.MaxChecks || srv.idle.n != len(srv.checks) {
		t.Fatalf("%d checks cached, %d in the idle list, cap %d", len(srv.checks), srv.idle.n, srv.MaxChecks)
	}
	oldestKept := 1 << 30
	for id := range srv.checks {
		if lastUse[id] < oldestKept {
			oldestKept = lastUse[id]
		}
	}
	for id, use := range lastUse {
		if _, kept := srv.checks[id]; !kept && use > oldestKept {
			t.Errorf("%s (last used at step %d) was evicted while something idle since step %d was kept", id, use, oldestKept)
		}
	}
	n := 0
	for st := srv.idle.front; st != nil; st = st.next {
		if st.next != nil && st.next.idleSince().Before(st.idleSince()) {
			t.Errorf("idle list out of order at %s", st.id)
		}
		n++
	}
	if n != srv.idle.n {
		t.Errorf("idle list holds %d, counts %d", n, srv.idle.n)
	}
}

// TestDoneAnswerExportsSpansOnce: the server-side span tree rides the
// first Done answer; later answers, which the submitter does not need,
// neither re-export it nor keep the cached check holding it.
func TestDoneAnswerExportsSpansOnce(t *testing.T) {
	srv := New("ms", nil)
	srv.Tracer = obs.NewTracer(0)
	req := checkFor("job-1", "http://x.com/p/1")
	req.TraceID, req.ParentSpanID = "trace-1", "span-1"
	if err := srv.StartCheck(req); err != nil {
		t.Fatal(err)
	}
	first, err := srv.AwaitResults(context.Background(), "job-1", 0)
	if err != nil || !first.Done || len(first.Spans) == 0 {
		t.Fatalf("first Done answer: done %v, %d spans, %v", first.Done, len(first.Spans), err)
	}
	second, err := srv.Results("job-1", 0)
	if err != nil || !second.Done || len(second.Spans) != 0 || len(second.Rows) != len(first.Rows) {
		t.Errorf("second Done answer: %d rows, %d spans, %v; want the rows again and no spans", len(second.Rows), len(second.Spans), err)
	}
	srv.mu.Lock()
	held := srv.checks["job-1"].trace
	srv.mu.Unlock()
	if held != nil {
		t.Error("the cached check still holds its trace after exporting it")
	}
}

// BenchmarkSubmitAtTheCheckCap is the submit path with the completed-check
// cache full: every StartCheck evicts one entry. It must not depend on the
// cap (the map used to be walked twice per submit).
func BenchmarkSubmitAtTheCheckCap(b *testing.B) {
	srv := New("ms", nil)
	srv.CheckTTL = time.Hour
	req := func(i int) *CheckRequest {
		return &CheckRequest{JobID: fmt.Sprintf("job-%d", i), URL: "http://x.com/p/1"}
	}
	for i := 0; i < DefaultMaxChecks; i++ {
		if err := srv.StartCheck(req(i)); err != nil {
			b.Fatal(err)
		}
	}
	waitForB(b, func() bool { return srv.Pending() == 0 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.StartCheck(req(DefaultMaxChecks + i)); err != nil {
			b.Fatal(err)
		}
	}
}

func waitForB(b *testing.B, cond func() bool) {
	b.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			b.Fatal("timed out")
		}
		time.Sleep(time.Millisecond)
	}
}
