package measurement

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pricesheriff/internal/htmlx"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/transport"
)

// gatedFetcher answers fetches of URLs containing hold only once release
// is closed (or their context dies); every other fetch answers at once,
// after delay. started is closed when the first held fetch parks.
type gatedFetcher struct {
	hold    string
	release chan struct{}
	started chan struct{}
	once    sync.Once
	delay   time.Duration
}

func newGatedFetcher(hold string) *gatedFetcher {
	return &gatedFetcher{hold: hold, release: make(chan struct{}), started: make(chan struct{})}
}

func (f *gatedFetcher) Fetch(ctx context.Context, req *shop.FetchRequest) (*shop.FetchResponse, error) {
	if f.hold != "" && strings.Contains(req.URL, f.hold) {
		f.once.Do(func() { close(f.started) })
		select {
		case <-f.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return &shop.FetchResponse{Status: 200, HTML: pricePage}, nil
}

const pricePage = `<html><body><div class="product"><span class="price">EUR10</span></div></body></html>`

// waitFixture is one measurement server behind an RPC front-end with one
// IPC served by fetcher, plus the registry its fabric and server report to.
type waitFixture struct {
	reg   *obs.Registry
	netw  transport.Network
	srv   *Server
	front *RPCServer
}

func newWaitFixture(t *testing.T, netw transport.Network, fetcher shop.Fetcher) *waitFixture {
	t.Helper()
	reg := obs.NewRegistry()
	switch f := netw.(type) {
	case *transport.Inproc:
		f.Metrics = transport.NewMetrics(reg, "inproc")
	case transport.TCP:
		f.Metrics = transport.NewMetrics(reg, "tcp")
		netw = f
	}
	srv := New("", nil)
	srv.Metrics = NewMetrics(reg)
	srv.CheckDeadline = 30 * time.Second
	srv.IPCs = []*IPC{{ID: "ipc-00-ES", IP: "10.0.0.9", Country: "ES", Fetcher: fetcher}}
	addr := ""
	if _, tcp := netw.(transport.TCP); tcp {
		addr = "127.0.0.1:0"
	}
	lis, err := netw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	front := NewRPCServer(srv, lis)
	go front.Serve()
	t.Cleanup(func() { front.Close() })
	return &waitFixture{reg: reg, netw: netw, srv: srv, front: front}
}

func (fx *waitFixture) dial(t *testing.T) *Client {
	t.Helper()
	cli, err := DialMeasurement(fx.netw, fx.front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

func (fx *waitFixture) inflight(fabric string) int64 {
	return fx.reg.Gauge("sheriff_rpc_inflight", "fabric", fabric).Value()
}

// tagsPathOf builds the Tags Path to the price of a pricePage-shaped page.
func tagsPathOf(html string) htmlx.TagsPath {
	path, err := htmlx.BuildTagsPath(htmlx.Parse(html).FindByClass("price")[0])
	if err != nil {
		panic(err)
	}
	return path
}

func checkFor(jobID, url string) *CheckRequest {
	return &CheckRequest{JobID: jobID, URL: url, TagsPath: tagsPathOf(pricePage), InitiatorHTML: pricePage, InitiatorID: "user-1"}
}

// TestWaitReturnsAtDoneNotAtTick is the tentpole's timing claim: a waiting
// results call comes back within a few scheduler hops of markDone, with no
// ticker granularity in between. Under the old 2 ms client poll the lag
// between the server finishing and the client knowing is uniform over the
// tick (median ≈ 1 ms); the done-notified path must stay far below it.
func TestWaitReturnsAtDoneNotAtTick(t *testing.T) {
	gf := newGatedFetcher("")
	fx := newWaitFixture(t, transport.NewInproc(), gf)
	cli := fx.dial(t)

	const checks = 41
	lags := make([]time.Duration, 0, checks)
	for i := 0; i < checks; i++ {
		// Spread the check lengths over a whole old tick so a poll loop
		// could not line up with them by luck.
		gf.delay = 2*time.Millisecond + time.Duration(i*137%2000)*time.Microsecond
		id := fmt.Sprintf("job-lag-%d", i)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := cli.CheckCtx(ctx, checkFor(id, "http://shop.es/p/1")); err != nil {
			t.Fatal(err)
		}
		rows, err := cli.WaitResultsCtx(ctx, id)
		back := time.Now()
		cancel()
		if err != nil || len(rows) != 2 {
			t.Fatalf("check %d: rows = %d, err = %v", i, len(rows), err)
		}
		fx.srv.mu.Lock()
		doneAt := fx.srv.checks[id].doneAt
		fx.srv.mu.Unlock()
		lags = append(lags, back.Sub(doneAt))
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	median := lags[len(lags)/2]
	t.Logf("markDone → return lag: median %v, max %v", median, lags[len(lags)-1])
	if median >= 500*time.Microsecond {
		t.Errorf("median lag from markDone to the waiting call's return = %v, want < 0.5 ms (all: %v)", median, lags)
	}
}

// TestWaitWakesOnCutAndCancel: a job ended by its deadline or by
// CancelCheck wakes its waiters like a completed one — Done, with the
// partial rows, and no error.
func TestWaitWakesOnCutAndCancel(t *testing.T) {
	t.Run("deadline", func(t *testing.T) {
		gf := newGatedFetcher("/held")
		fx := newWaitFixture(t, transport.NewInproc(), gf)
		fx.srv.CheckDeadline = 60 * time.Millisecond
		cli := fx.dial(t)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := cli.CheckCtx(ctx, checkFor("job-cut", "http://shop.es/held/1")); err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		rows, err := cli.WaitResultsCtx(ctx, "job-cut")
		if err != nil {
			t.Fatalf("wait on a deadline-cut job: %v", err)
		}
		if len(rows) == 0 || rows[0].Kind != "initiator" {
			t.Fatalf("partial rows = %+v, want the initiator row", rows)
		}
		if elapsed := time.Since(t0); elapsed > 2*time.Second {
			t.Errorf("deadline cut took %v to reach the waiter", elapsed)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		gf := newGatedFetcher("/held")
		fx := newWaitFixture(t, transport.NewInproc(), gf)
		cli := fx.dial(t)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := cli.CheckCtx(ctx, checkFor("job-cancel", "http://shop.es/held/1")); err != nil {
			t.Fatal(err)
		}
		type result struct {
			rows []ResultRow
			err  error
		}
		got := make(chan result, 1)
		go func() {
			rows, err := cli.WaitResultsCtx(ctx, "job-cancel")
			got <- result{rows, err}
		}()
		<-gf.started
		waitFor(t, 2*time.Second, "the waiter to park", func() bool { return fx.inflight("inproc") == 1 })
		if err := cli.Cancel(ctx, "job-cancel"); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-got:
			if r.err != nil || len(r.rows) == 0 {
				t.Fatalf("wait on a canceled job: rows = %d, err = %v", len(r.rows), r.err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("CancelCheck did not wake the waiter")
		}
	})
}

// TestAbandonedWaitsReturnPartialRowsAndFreeHandlers: a caller that gives
// up mid-wait gets the rows gathered so far, and the handler goroutine the
// server parked for it exits — by cancel frame on a shared connection, and
// by the connection being dropped.
func TestAbandonedWaitsReturnPartialRowsAndFreeHandlers(t *testing.T) {
	const waits = 200
	type result struct {
		rows []ResultRow
		err  error
	}

	t.Run("cancel_frame", func(t *testing.T) {
		gf := newGatedFetcher("/held")
		fx := newWaitFixture(t, transport.NewInproc(), gf)
		cli := fx.dial(t)
		if err := cli.CheckCtx(context.Background(), checkFor("job-held", "http://shop.es/held/1")); err != nil {
			t.Fatal(err)
		}
		<-gf.started
		baseline := runtime.NumGoroutine()

		ctx, cancel := context.WithCancel(context.Background())
		got := make(chan result, waits)
		for i := 0; i < waits; i++ {
			go func() {
				rows, err := cli.WaitResultsCtx(ctx, "job-held")
				got <- result{rows, err}
			}()
		}
		waitFor(t, 5*time.Second, "every wait to park server-side", func() bool { return fx.inflight("inproc") == waits })
		cancel()
		for i := 0; i < waits; i++ {
			r := <-got
			if !errors.Is(r.err, context.Canceled) {
				t.Fatalf("abandoned wait err = %v, want context.Canceled", r.err)
			}
			if len(r.rows) != 1 || r.rows[0].Kind != "initiator" {
				t.Fatalf("abandoned wait rows = %+v, want the initiator row gathered so far", r.rows)
			}
		}
		waitFor(t, 5*time.Second, "parked handlers to exit", func() bool {
			return fx.inflight("inproc") == 0 && runtime.NumGoroutine() <= baseline+2
		})
		close(gf.release)
	})

	t.Run("dropped_connection", func(t *testing.T) {
		gf := newGatedFetcher("/held")
		fx := newWaitFixture(t, transport.NewInproc(), gf)
		if err := fx.dial(t).CheckCtx(context.Background(), checkFor("job-held", "http://shop.es/held/1")); err != nil {
			t.Fatal(err)
		}
		<-gf.started
		baseline := runtime.NumGoroutine()

		clis := make([]*Client, 8)
		for i := range clis {
			clis[i] = fx.dial(t)
		}
		got := make(chan result, waits)
		for i := 0; i < waits; i++ {
			go func(cli *Client) {
				rows, err := cli.WaitResultsCtx(context.Background(), "job-held")
				got <- result{rows, err}
			}(clis[i%len(clis)])
		}
		waitFor(t, 5*time.Second, "every wait to park server-side", func() bool { return fx.inflight("inproc") == waits })
		for _, cli := range clis {
			cli.Close()
		}
		for i := 0; i < waits; i++ {
			if r := <-got; r.err == nil {
				t.Fatal("a wait on a dropped connection returned no error")
			}
		}
		waitFor(t, 5*time.Second, "parked handlers to exit", func() bool {
			return fx.inflight("inproc") == 0 && runtime.NumGoroutine() <= baseline+2
		})
		close(gf.release)
	})
}

// TestWaitUnknownJobAnswersAtOnce: a wait on a job the server never saw,
// or has evicted, must not park.
func TestWaitUnknownJobAnswersAtOnce(t *testing.T) {
	fx := newWaitFixture(t, transport.NewInproc(), newGatedFetcher(""))
	fx.srv.MaxChecks = 1
	cli := fx.dial(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	for _, id := range []string{"job-a", "job-b"} { // job-b's arrival evicts the finished job-a
		if err := cli.CheckCtx(ctx, checkFor(id, "http://shop.es/p/1")); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.WaitResultsCtx(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"job-never", "job-a"} {
		t0 := time.Now()
		_, err := cli.WaitResultsCtx(ctx, id)
		if err == nil || !strings.Contains(err.Error(), ErrUnknownJob.Error()) {
			t.Errorf("wait on %s = %v, want unknown job", id, err)
		}
		if elapsed := time.Since(t0); elapsed > time.Second {
			t.Errorf("wait on %s took %v to be refused", id, elapsed)
		}
		if _, err := fx.srv.AwaitResults(ctx, id, 0); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("AwaitResults(%s) = %v, want ErrUnknownJob", id, err)
		}
	}
}

// TestConcurrentWaitersAllWake: any number of waiters on one job wake on
// its one done signal, each with the full row set.
func TestConcurrentWaitersAllWake(t *testing.T) {
	const waiters = 32
	gf := newGatedFetcher("/held")
	fx := newWaitFixture(t, transport.NewInproc(), gf)
	cli := fx.dial(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cli.CheckCtx(ctx, checkFor("job-many", "http://shop.es/held/1")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var woke atomic.Int32
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := cli.WaitResultsCtx(ctx, "job-many")
			if err != nil || len(rows) != 2 {
				t.Errorf("waiter: rows = %d, err = %v", len(rows), err)
				return
			}
			woke.Add(1)
		}()
	}
	waitFor(t, 5*time.Second, "every waiter to park", func() bool { return fx.inflight("inproc") == waiters })
	close(gf.release)
	wg.Wait()
	if woke.Load() != waiters {
		t.Errorf("%d of %d waiters woke with the full result", woke.Load(), waiters)
	}
}

// TestParkedWaitDoesNotStallTheConnection: 64 concurrent checks, each
// submitting a 64 KiB page, share one TCP connection with a wait parked on
// a job that never finishes meanwhile — multiplexing means neither the
// parked call nor the big frames hold the others up.
func TestParkedWaitDoesNotStallTheConnection(t *testing.T) {
	gf := newGatedFetcher("/held")
	fx := newWaitFixture(t, transport.TCP{}, gf)
	cli := fx.dial(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	if err := cli.CheckCtx(ctx, checkFor("job-held", "http://shop.es/held/1")); err != nil {
		t.Fatal(err)
	}
	held := make(chan error, 1)
	go func() {
		_, err := cli.WaitResultsCtx(ctx, "job-held")
		held <- err
	}()
	<-gf.started
	waitFor(t, 2*time.Second, "the held wait to park", func() bool { return fx.inflight("tcp") == 1 })

	bigPage := pricePage + "<!--" + strings.Repeat("x", 64<<10) + "-->"
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("job-big-%d", i)
			req := checkFor(id, "http://shop.es/p/1")
			req.InitiatorHTML = bigPage
			if err := cli.CheckCtx(ctx, req); err != nil {
				t.Errorf("%s: submit: %v", id, err)
				return
			}
			if rows, err := cli.WaitResultsCtx(ctx, id); err != nil || len(rows) != 2 {
				t.Errorf("%s: rows = %d, err = %v", id, len(rows), err)
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-held:
		t.Fatalf("the held wait returned early: %v", err)
	default:
	}
	close(gf.release)
	if err := <-held; err != nil {
		t.Fatalf("the held wait after release: %v", err)
	}
	if cli.Broken() {
		t.Error("the shared connection broke")
	}
}

// TestResultsReqCodecOneWire: the results request has one frame shape —
// job, since, wait flag — which round-trips, and a frame that ends before
// the flag (or inside any field) is refused, not read as a flagless poll.
func TestResultsReqCodecOneWire(t *testing.T) {
	for _, want := range []resultsReq{{JobID: "job-42", Since: 3, Wait: true}, {JobID: "job-42", Since: 3}} {
		frame := want.AppendWire(nil)
		var got resultsReq
		d := transport.NewWireDec(frame)
		if err := got.DecodeWire(d); err != nil || d.Remaining() != 0 {
			t.Fatalf("round trip of %+v: err = %v, %d bytes left", want, err, d.Remaining())
		}
		if got != want {
			t.Errorf("round trip decoded to %+v, want %+v", got, want)
		}
		for cut := 0; cut < len(frame); cut++ {
			if err := new(resultsReq).DecodeWire(transport.NewWireDec(frame[:cut])); err == nil {
				t.Errorf("a frame of %+v cut to %d of %d bytes decoded without error", want, cut, len(frame))
			}
		}
	}
}

// TestWaitInteropMixedVersions: beside callers that wait, a caller that
// polls with the wait flag off (the AJAX shape) is never parked by the
// server, over real TCP.
func TestWaitInteropMixedVersions(t *testing.T) {
	t.Run("old_client/client=binary_server=binary", func(t *testing.T) {
		gf := newGatedFetcher("/held")
		fx := newWaitFixture(t, transport.TCP{}, gf)
		rpc, err := transport.DialClient(transport.TCP{}, fx.front.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer rpc.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rpc.CallCtx(ctx, "ms.check", checkFor("job-old-cli", "http://shop.es/held/1"), nil); err != nil {
			t.Fatal(err)
		}
		<-gf.started
		var rows []ResultRow
		poll := func() ResultsResponse {
			var resp ResultsResponse
			if err := rpc.CallCtx(ctx, "ms.results", &resultsReq{JobID: "job-old-cli", Since: len(rows)}, &resp); err != nil {
				t.Fatal(err)
			}
			rows = append(rows, resp.Rows...)
			return resp
		}
		t0 := time.Now()
		if resp := poll(); resp.Done || len(rows) != 1 {
			t.Fatalf("first poll: done = %v, rows = %d; want the initiator row, not done", resp.Done, len(rows))
		}
		if elapsed := time.Since(t0); elapsed > 2*time.Second {
			t.Errorf("a flagless poll of a running job took %v: the server parked it", elapsed)
		}
		close(gf.release)
		for !poll().Done {
			if ctx.Err() != nil {
				t.Fatal("job never finished")
			}
			time.Sleep(2 * time.Millisecond)
		}
		if len(rows) != 2 {
			t.Errorf("rows = %d, want 2", len(rows))
		}
	})
}

// TestWaitNotDoneAnswerReturnsPartialRowsAtDeadline: the caller's deadline
// crosses the wire at millisecond grain, so the server's copy can expire
// first and answer a waiting call not-done while the caller's context is
// still alive. WaitResultsCtx must neither report that as completion nor
// spin or sleep on it: it asks again (the server parks each ask until its
// own deadline), and when the context dies returns the rows gathered so
// far with the context's cause. The front-end here makes the race certain:
// its copy of the first ask's deadline runs out after 20 ms.
func TestWaitNotDoneAnswerReturnsPartialRowsAtDeadline(t *testing.T) {
	gf := newGatedFetcher("/held")
	defer close(gf.release)
	srv := New("", nil)
	srv.CheckDeadline = 30 * time.Second
	srv.IPCs = []*IPC{{ID: "ipc-00-ES", IP: "10.0.0.9", Country: "ES", Fetcher: gf}}
	netw := transport.NewInproc()
	lis, err := netw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	front := transport.NewServer(lis)
	transport.HandleTyped(front, "ms.check", func(ctx context.Context, req *CheckRequest) (any, error) {
		return nil, srv.StartCheckCtx(ctx, req)
	})
	var waits atomic.Int32
	transport.HandleTyped(front, "ms.results", func(ctx context.Context, req *resultsReq) (any, error) {
		if !req.Wait {
			resp, err := srv.Results(req.JobID, req.Since)
			return &resp, err
		}
		if waits.Add(1) == 1 {
			early, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
			defer cancel()
			ctx = early
		}
		resp, err := srv.AwaitResults(ctx, req.JobID, req.Since)
		return &resp, err
	})
	go front.Serve()
	defer front.Close()

	cli, err := DialMeasurement(netw, lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.CheckCtx(context.Background(), checkFor("job-tick", "http://shop.es/held/1")); err != nil {
		t.Fatal(err)
	}
	<-gf.started

	const budget = 400 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	t0 := time.Now()
	rows, err := cli.WaitResultsCtx(ctx, "job-tick")
	elapsed := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context's cause (deadline exceeded)", err)
	}
	if len(rows) != 1 || rows[0].Kind != "initiator" {
		t.Errorf("rows = %+v, want the initiator row gathered so far, once", rows)
	}
	if elapsed < budget-5*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("returned after %v: want the caller's %v deadline, not the server's early answer", elapsed, budget)
	}
	if n := waits.Load(); n < 2 || n > 8 {
		t.Errorf("%d waiting asks: want the not-done answer asked again, parked server-side rather than spun", n)
	}
}

// TestCompletedCheckDoesNotPinSubmitFrame: off the binary wire the job ID,
// initiator ID and trace IDs are slices of the one frame that also carries
// the initiator's page; a completed check stays cached for minutes, so it
// must hold clones of them, not the page.
func TestCompletedCheckDoesNotPinSubmitFrame(t *testing.T) {
	srv := New("ms-pin", nil)
	srv.Tracer = obs.NewTracer(4)
	page := pricePage + "<!--" + strings.Repeat("x", 64<<10) + "-->"
	path := tagsPathOf(pricePage)

	settledHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	run := func(i int) {
		id := fmt.Sprintf("job-pin-%d", i)
		frame := (&CheckRequest{
			JobID: id, URL: "http://shop.es/p/1", TagsPath: path, InitiatorHTML: page,
			InitiatorID: "user-1", TraceID: "trace-" + id, ParentSpanID: "span-" + id,
		}).AppendWire(nil)
		req := new(CheckRequest)
		if err := req.DecodeWire(transport.NewWireDec(frame)); err != nil {
			t.Fatal(err)
		}
		if err := srv.StartCheck(req); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.WaitResults(id, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	run(0)
	const checks = 200
	before := settledHeap()
	for i := 1; i <= checks; i++ {
		run(i)
	}
	// process returns (and lets go of the request) just after markDone.
	waitFor(t, 2*time.Second, "check goroutines to finish", func() bool { return srv.Tracer.ActiveCount() == 0 })
	after := settledHeap()
	if after > before {
		if perCheck := (after - before) / checks; perCheck > 16<<10 {
			t.Errorf("a cached completed check retains %d bytes of a %d-byte submit frame, want a few hundred", perCheck, len(page))
		}
	}
}
