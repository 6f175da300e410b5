package transport

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer registers an "echo" method plus a ctx-aware "slow" method
// that blocks until the handler context dies or the budget elapses.
func echoServer(t *testing.T, netw Network, addr string) (*Server, string) {
	t.Helper()
	lis, err := netw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lis)
	srv.Handle("echo", func(raw json.RawMessage) (any, error) {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, err
		}
		return s, nil
	})
	srv.HandleCtx("slow", func(ctx context.Context, raw json.RawMessage) (any, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return "late", nil
		}
	})
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, lis.Addr()
}

// TestMuxConcurrentCalls drives 100 concurrent CallCtx through ONE
// connection (run under -race via make test): every call must come back
// with its own answer, proving responses are matched by call ID.
func TestMuxConcurrentCalls(t *testing.T) {
	netw := NewInproc()
	_, addr := echoServer(t, netw, "")
	cli, err := DialClient(netw, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			want := string(rune('a'+i%26)) + "-payload"
			var got string
			if err := cli.CallCtx(ctx, "echo", want, &got); err != nil {
				errs <- err
				return
			}
			if got != want {
				errs <- errors.New("cross-wired response: got " + got + " want " + want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxTimeoutDoesNotPoisonConcurrentCalls is the pool-poisoning
// regression for the mux protocol: one call hitting its deadline
// mid-response must fail alone while concurrent calls on the same conn
// complete, and the conn must stay healthy afterwards.
func TestMuxTimeoutDoesNotPoisonConcurrentCalls(t *testing.T) {
	netw := NewInproc()
	_, addr := echoServer(t, netw, "")
	cli, err := DialClient(netw, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var slowErr error
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		slowErr = cli.CallCtx(ctx, "slow", nil, nil)
	}()
	// Concurrent echoes on the same conn, spanning the slow call's expiry.
	for i := 0; i < 50; i++ {
		var got string
		if err := cli.CallCtx(context.Background(), "echo", "x", &got); err != nil || got != "x" {
			t.Fatalf("echo %d alongside timing-out call: %q, %v", i, got, err)
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	if !errors.Is(slowErr, ErrCallTimeout) || !errors.Is(slowErr, context.DeadlineExceeded) {
		t.Fatalf("slow call err = %v, want ErrCallTimeout and DeadlineExceeded", slowErr)
	}
	if cli.Broken() {
		t.Fatal("deadline expiry mid-response poisoned the shared conn")
	}
	var got string
	if err := cli.CallCtx(context.Background(), "echo", "after", &got); err != nil || got != "after" {
		t.Fatalf("conn unusable after timeout: %q, %v", got, err)
	}
}

// TestServerAbortsHandlerOnCancel proves end-to-end cancellation: when
// the caller's ctx is canceled the client sends a cancel frame and the
// server-side handler context dies well within 100ms — the handler does
// not run out its full 10s budget.
func TestServerAbortsHandlerOnCancel(t *testing.T) {
	netw := NewInproc()
	lis, err := netw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lis)
	aborted := make(chan time.Time, 1)
	srv.HandleCtx("slow", func(ctx context.Context, raw json.RawMessage) (any, error) {
		select {
		case <-ctx.Done():
			aborted <- time.Now()
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return "late", nil
		}
	})
	go srv.Serve()
	defer srv.Close()

	cli, err := DialClient(netw, lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cli.CallCtx(ctx, "slow", nil, nil) }()
	time.Sleep(20 * time.Millisecond) // let the request reach the handler
	canceledAt := time.Now()
	cancel()

	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller err = %v, want context.Canceled", err)
	}
	select {
	case at := <-aborted:
		if d := at.Sub(canceledAt); d > 100*time.Millisecond {
			t.Fatalf("handler aborted %v after cancel, want <100ms", d)
		}
	case <-time.After(time.Second):
		t.Fatal("handler never observed the cancel frame")
	}
}

// TestDeadlinePropagatesOnWire checks the wire header: the server-side
// handler sees a context deadline tracking the caller's remaining
// budget, without the caller canceling anything explicitly.
func TestDeadlinePropagatesOnWire(t *testing.T) {
	netw := NewInproc()
	lis, err := netw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lis)
	type probe struct {
		HasDeadline bool
		RemainMS    int64
	}
	srv.HandleCtx("probe", func(ctx context.Context, raw json.RawMessage) (any, error) {
		p := probe{}
		if dl, ok := ctx.Deadline(); ok {
			p.HasDeadline = true
			p.RemainMS = time.Until(dl).Milliseconds()
		}
		return p, nil
	})
	go srv.Serve()
	defer srv.Close()

	cli, err := DialClient(netw, lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var p probe
	if err := cli.CallCtx(ctx, "probe", nil, &p); err != nil {
		t.Fatal(err)
	}
	if !p.HasDeadline {
		t.Fatal("handler context has no deadline; wire header not propagated")
	}
	if p.RemainMS <= 0 || p.RemainMS > 5000 {
		t.Fatalf("handler saw %dms remaining, want (0, 5000]", p.RemainMS)
	}
}

// codedErr is a typed error with a wire code, standing in for
// admit.ErrOverload without an import cycle.
type codedErr struct{ code string }

func (e *codedErr) Error() string   { return "coded: " + e.code }
func (e *codedErr) RPCCode() string { return e.code }

// TestErrorCodeCrossesWire: a handler error implementing RPCCoder stays
// matchable with errors.Is on the client side via RemoteError.Code.
func TestErrorCodeCrossesWire(t *testing.T) {
	sentinel := &codedErr{code: "overload"}
	netw := NewInproc()
	lis, err := netw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lis)
	srv.HandleCtx("shed", func(context.Context, json.RawMessage) (any, error) {
		return nil, sentinel
	})
	go srv.Serve()
	defer srv.Close()

	cli, err := DialClient(netw, lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	err = cli.CallCtx(context.Background(), "shed", nil, nil)
	if !IsRemote(err) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is lost the typed identity across the wire: %v", err)
	}
}

// slowSendNet delays every client-side Send by a settable amount (or, at
// a negative amount, wedges it until the connection closes), standing in
// for a write that is slow or stuck when its caller gives up.
type slowSendNet struct {
	Network
	delay atomic.Int64 // nanoseconds; < 0 wedges
}

type slowSendConn struct {
	Conn
	net    *slowSendNet
	closed chan struct{}
	once   sync.Once
}

func (n *slowSendNet) Dial(addr string) (Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &slowSendConn{Conn: c, net: n, closed: make(chan struct{})}, nil
}

func (c *slowSendConn) Send(v any) error {
	switch d := time.Duration(c.net.delay.Load()); {
	case d < 0:
		<-c.closed
		return ErrClosed
	case d > 0:
		time.Sleep(d)
	}
	return c.Conn.Send(v)
}

func (c *slowSendConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestAbandonedSendKeepsSharedConnUnlessWedged: a caller whose context
// dies while its request is still being written gives up at once, but the
// connection it shares with other calls is broken only if the write fails
// or stays stuck — a write that lands moments later leaves it healthy.
func TestAbandonedSendKeepsSharedConnUnlessWedged(t *testing.T) {
	inner := NewInproc()
	_, addr := echoServer(t, inner, "")
	netw := &slowSendNet{Network: inner}
	cli, err := DialClient(netw, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var out string
	call := func(budget time.Duration) error {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		defer cancel()
		return cli.CallCtx(ctx, "echo", "hi", &out)
	}

	// The write outlasts the caller's budget but lands within the grace.
	netw.delay.Store(int64(abandonedSendGrace / 4))
	t0 := time.Now()
	if err := call(abandonedSendGrace / 20); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("call with a slow write: %v, want ErrCallTimeout", err)
	}
	if waited := time.Since(t0); waited >= abandonedSendGrace/4 {
		t.Errorf("caller waited %v for a write it had abandoned", waited)
	}
	time.Sleep(abandonedSendGrace / 2) // the late write and its cancel frame land
	netw.delay.Store(0)
	if cli.Broken() {
		t.Fatal("a write that landed late broke the shared connection")
	}
	if err := call(2 * time.Second); err != nil || out != "hi" {
		t.Fatalf("call after the late write: %q, %v", out, err)
	}

	// The write never lands: the connection is broken after the grace, and
	// closing it releases the stuck writer.
	netw.delay.Store(-1)
	if err := call(abandonedSendGrace / 20); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("call with a wedged write: %v, want ErrCallTimeout", err)
	}
	deadline := time.Now().Add(20 * abandonedSendGrace)
	for !cli.Broken() {
		if time.Now().After(deadline) {
			t.Fatal("a wedged write never broke the connection")
		}
		time.Sleep(time.Millisecond)
	}
}
