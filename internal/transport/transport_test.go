package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fabrics returns both network implementations under test.
func fabrics() map[string]Network {
	return map[string]Network{
		"tcp":    TCP{},
		"inproc": NewInproc(),
	}
}

func listenAddr(name string) string {
	if name == "tcp" {
		return "127.0.0.1:0"
	}
	return ""
}

func TestConnSendRecvBothFabrics(t *testing.T) {
	for name, netw := range fabrics() {
		t.Run(name, func(t *testing.T) {
			lis, err := netw.Listen(listenAddr(name))
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()

			type msg struct {
				A int
				B string
			}
			done := make(chan error, 1)
			go func() {
				conn, err := lis.Accept()
				if err != nil {
					done <- err
					return
				}
				defer conn.Close()
				var m msg
				if err := conn.Recv(&m); err != nil {
					done <- err
					return
				}
				m.A++
				done <- conn.Send(&m)
			}()

			conn, err := netw.Dial(lis.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.Send(msg{A: 41, B: "x"}); err != nil {
				t.Fatal(err)
			}
			var got msg
			if err := conn.Recv(&got); err != nil {
				t.Fatal(err)
			}
			if got.A != 42 || got.B != "x" {
				t.Errorf("round trip = %+v", got)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDialUnknownAddress(t *testing.T) {
	inproc := NewInproc()
	if _, err := inproc.Dial("nowhere"); err == nil {
		t.Error("inproc dial to unknown address must fail")
	}
	if _, err := (TCP{}).Dial("127.0.0.1:1"); err == nil {
		t.Error("tcp dial to closed port must fail")
	}
}

func TestInprocDuplicateBind(t *testing.T) {
	n := NewInproc()
	l, err := n.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("svc"); err == nil {
		t.Error("duplicate bind must fail")
	}
	l.Close()
	// Address reusable after close.
	if _, err := n.Listen("svc"); err != nil {
		t.Errorf("rebind after close: %v", err)
	}
}

func TestInprocListenerClose(t *testing.T) {
	n := NewInproc()
	l, _ := n.Listen("svc")
	go l.Close()
	if _, err := l.Accept(); err != ErrClosed {
		t.Errorf("Accept on closed = %v", err)
	}
	if _, err := n.Dial("svc"); err == nil {
		t.Error("dial to closed listener must fail")
	}
}

func TestRPCServerBasics(t *testing.T) {
	for name, netw := range fabrics() {
		t.Run(name, func(t *testing.T) {
			lis, err := netw.Listen(listenAddr(name))
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(lis)
			type addReq struct{ A, B int }
			type addResp struct{ Sum int }
			srv.Handle("add", func(raw json.RawMessage) (any, error) {
				var r addReq
				if err := unmarshal(raw, &r); err != nil {
					return nil, err
				}
				return addResp{Sum: r.A + r.B}, nil
			})
			srv.Handle("fail", func(json.RawMessage) (any, error) {
				return nil, errors.New("boom")
			})
			go srv.Serve()
			defer srv.Close()

			cli, err := DialClient(netw, srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			var resp addResp
			if err := cli.CallCtx(context.Background(), "add", addReq{2, 3}, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Sum != 5 {
				t.Errorf("sum = %d", resp.Sum)
			}

			err = cli.CallCtx(context.Background(), "fail", nil, nil)
			if err == nil || !IsRemote(err) || !strings.Contains(err.Error(), "boom") {
				t.Errorf("remote error = %v", err)
			}
			err = cli.CallCtx(context.Background(), "nosuch", nil, nil)
			if err == nil || !IsRemote(err) {
				t.Errorf("unknown method error = %v", err)
			}
		})
	}
}

func TestRPCConcurrentClients(t *testing.T) {
	netw := NewInproc()
	lis, _ := netw.Listen("")
	srv := NewServer(lis)
	var mu sync.Mutex
	counter := 0
	srv.Handle("inc", func(json.RawMessage) (any, error) {
		mu.Lock()
		counter++
		n := counter
		mu.Unlock()
		return map[string]int{"n": n}, nil
	})
	go srv.Serve()
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := DialClient(netw, srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			for j := 0; j < 10; j++ {
				if err := cli.CallCtx(context.Background(), "inc", nil, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if counter != 320 {
		t.Errorf("counter = %d, want 320", counter)
	}
}

func TestPool(t *testing.T) {
	netw := NewInproc()
	lis, _ := netw.Listen("")
	srv := NewServer(lis)
	srv.Handle("echo", func(raw json.RawMessage) (any, error) {
		var v int
		if err := unmarshal(raw, &v); err != nil {
			return nil, err
		}
		return v, nil
	})
	go srv.Serve()
	defer srv.Close()

	pool, err := NewPool(netw, srv.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Size() != 4 {
		t.Errorf("size = %d", pool.Size())
	}
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out int
			if err := pool.CallCtx(context.Background(), "echo", i, &out); err != nil || out != i {
				t.Errorf("echo %d = %d, %v", i, out, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestPoolDialFailure(t *testing.T) {
	if _, err := NewPool(NewInproc(), "nowhere", 2); err == nil {
		t.Error("pool to unknown address must fail")
	}
}

func TestLargeFrame(t *testing.T) {
	netw := NewInproc()
	lis, _ := netw.Listen("")
	srv := NewServer(lis)
	srv.Handle("blob", func(raw json.RawMessage) (any, error) {
		var s string
		if err := unmarshal(raw, &s); err != nil {
			return nil, err
		}
		return len(s), nil
	})
	go srv.Serve()
	defer srv.Close()
	cli, _ := DialClient(netw, srv.Addr())
	defer cli.Close()

	// A ~1 MB product page must pass.
	page := strings.Repeat("x", 1<<20)
	var n int
	if err := cli.CallCtx(context.Background(), "blob", page, &n); err != nil || n != 1<<20 {
		t.Fatalf("1MB frame: n=%d err=%v", n, err)
	}
	// Over MaxFrame must be rejected client-side.
	huge := strings.Repeat("x", MaxFrame+1)
	if err := cli.CallCtx(context.Background(), "blob", huge, &n); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame error = %v", err)
	}
}

func TestTCPFrameTooLargeOnWire(t *testing.T) {
	lis, err := (TCP{}).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		// A 32-bit length prefix claiming a 17MB frame: more than the
		// 24-bit length of a frame header can say, so not a frame at all.
		raw := conn.(*tcpConn)
		raw.c.Write([]byte{0x01, 0x10, 0x00, 0x00})
		raw.c.Write([]byte("junk"))
	}()
	conn, err := (TCP{}).Dial(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var v any
	deadline := time.After(2 * time.Second)
	errCh := make(chan error, 1)
	go func() { errCh <- conn.Recv(&v) }()
	select {
	case err := <-errCh:
		if ffe := new(ForeignFrameError); !errors.As(err, &ffe) {
			t.Errorf("recv error = %v, want a *ForeignFrameError", err)
		}
	case <-deadline:
		t.Fatal("Recv hung on oversized frame")
	}
}

func unmarshal(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return fmt.Errorf("empty body")
	}
	return json.Unmarshal(raw, v)
}

func TestPoolRecoversFromServerRestart(t *testing.T) {
	netw := NewInproc()
	start := func() *Server {
		lis, err := netw.Listen("svc-pool")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(lis)
		srv.Handle("ping", func(json.RawMessage) (any, error) { return "pong", nil })
		go srv.Serve()
		return srv
	}
	srv := start()
	pool, err := NewPool(netw, "svc-pool", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var out string
	if err := pool.CallCtx(context.Background(), "ping", nil, &out); err != nil || out != "pong" {
		t.Fatalf("initial call: %q %v", out, err)
	}

	// The server dies mid-flight: pooled connections break.
	srv.Close()
	failures := 0
	for i := 0; i < 4; i++ { // touch every pooled conn at least once
		if err := pool.CallCtx(context.Background(), "ping", nil, &out); err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("calls succeeded against a dead server")
	}

	// The server comes back at the same address; the pool self-heals.
	srv2 := start()
	defer srv2.Close()
	healed := false
	for i := 0; i < 6 && !healed; i++ {
		if err := pool.CallCtx(context.Background(), "ping", nil, &out); err == nil && out == "pong" {
			healed = true
		}
	}
	if !healed {
		t.Fatal("pool never recovered after server restart")
	}
}
