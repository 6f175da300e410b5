package transport

import (
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// muteServer accepts RPC connections and reads requests but never
// answers, simulating a hung measurement or shop backend.
func muteServer(t *testing.T, netw Network, addr string) Listener {
	t.Helper()
	lis, err := netw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					var env Envelope
					if err := conn.Recv(&env); err != nil {
						return
					}
				}
			}()
		}
	}()
	return lis
}

// callWithin is CallCtx under a fresh deadline d away.
func callWithin(c *Client, d time.Duration, method string, req, resp any) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return c.CallCtx(ctx, method, req, resp)
}

func testCallTimeout(t *testing.T, netw Network, addr string) {
	t.Helper()
	lis := muteServer(t, netw, addr)
	defer lis.Close()

	cli, err := DialClient(netw, lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	start := time.Now()
	err = callWithin(cli, 50*time.Millisecond, "ping", nil, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("timeout enforced after %v", elapsed)
	}
	// Under the mux protocol a timed-out call abandons only its own call
	// ID: the shared connection stays usable, so a second call against the
	// still-mute server times out again rather than failing ErrClosed.
	if err := callWithin(cli, 50*time.Millisecond, "ping", nil, nil); !errors.Is(err, ErrCallTimeout) {
		t.Errorf("second call on timed-out client: %v, want ErrCallTimeout", err)
	}
	if cli.Broken() {
		t.Error("per-call timeout must not break the shared connection")
	}
}

func TestCallTimeoutInproc(t *testing.T) {
	testCallTimeout(t, NewInproc(), "mute")
}

func TestCallTimeoutTCP(t *testing.T) {
	testCallTimeout(t, TCP{}, "127.0.0.1:0")
}

func TestCallNoTimeoutStillWorks(t *testing.T) {
	netw := NewInproc()
	lis, err := netw.Listen("")
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
	go srv.Serve()
	defer srv.Close()

	cli, err := DialClient(netw, lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var out string
	if err := callWithin(cli, time.Second, "echo", "hello", &out); err != nil || out != "hello" {
		t.Fatalf("echo = %q, %v", out, err)
	}
	// A deadline that never fires must be cleared between calls.
	for i := 0; i < 3; i++ {
		if err := callWithin(cli, time.Second, "echo", "again", &out); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPoolSurvivesTimeout(t *testing.T) {
	// A pooled call that hits its deadline no longer poisons the
	// connection: the late response is dropped by call ID and the very
	// same conn serves the next call once the server behaves.
	netw := NewInproc()
	lis, err := netw.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	var mute atomic.Bool
	mute.Store(true)
	srv := NewServer(lis)
	srv.Handle("ping", func(json.RawMessage) (any, error) {
		if mute.Load() {
			time.Sleep(200 * time.Millisecond)
		}
		return "pong", nil
	})
	go srv.Serve()
	defer srv.Close()

	pool, err := NewPool(netw, "svc", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var out string
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := pool.CallCtx(ctx, "ping", nil, &out); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("slow call: %v, want ErrCallTimeout", err)
	}
	mute.Store(false)
	if err := pool.CallCtx(context.Background(), "ping", nil, &out); err != nil || out != "pong" {
		t.Fatalf("pool did not recover: %q, %v", out, err)
	}
}

func TestPoolRedialsBrokenConn(t *testing.T) {
	// A server restart really breaks the conn; the pool must notice via
	// Broken() and re-dial before the next call.
	netw := NewInproc()
	lis, err := netw.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lis)
	srv.Handle("ping", func(json.RawMessage) (any, error) { return "pong", nil })
	go srv.Serve()

	pool, err := NewPool(netw, "svc", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var out string
	if err := pool.CallCtx(context.Background(), "ping", nil, &out); err != nil || out != "pong" {
		t.Fatalf("first call: %q, %v", out, err)
	}

	srv.Close() // tear down every conn
	// Restart on the same logical address.
	lis2, err := netw.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(lis2)
	srv2.Handle("ping", func(json.RawMessage) (any, error) { return "pong", nil })
	go srv2.Serve()
	defer srv2.Close()

	// The first call after the restart may surface the broken conn; the
	// pool replaces it so a follow-up succeeds.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := pool.CallCtx(context.Background(), "ping", nil, &out); err == nil && out == "pong" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never recovered after server restart")
		}
	}
}
