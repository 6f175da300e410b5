package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"pricesheriff/internal/shop"
	"pricesheriff/internal/transport"
)

// okFetcher always succeeds.
type okFetcher struct{}

func (okFetcher) Fetch(context.Context, *shop.FetchRequest) (*shop.FetchResponse, error) {
	return &shop.FetchResponse{Status: 200, HTML: "<html></html>"}, nil
}

func TestFetcherDeterministicSequence(t *testing.T) {
	cfg := Config{Seed: 99, ErrRate: 0.4}
	run := func() []bool {
		f := NewFetcher(okFetcher{}, cfg)
		out := make([]bool, 200)
		for i := range out {
			_, err := f.Fetch(context.Background(), &shop.FetchRequest{URL: "http://x/p"})
			out[i] = err != nil
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequences diverge at %d", i)
		}
	}
	errs := 0
	for _, failed := range a {
		if failed {
			errs++
		}
	}
	// 200 draws at 40%: the seeded sequence is fixed, so just sanity-band it.
	if errs < 50 || errs > 120 {
		t.Errorf("injected %d errors out of 200 at rate 0.4", errs)
	}
}

func TestFetcherErrorAndStats(t *testing.T) {
	f := NewFetcher(okFetcher{}, Config{Seed: 1, ErrRate: 1})
	if _, err := f.Fetch(context.Background(), &shop.FetchRequest{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if s := f.Stats(); s.Errors != 1 || s.Total() != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFetcherLatency(t *testing.T) {
	f := NewFetcher(okFetcher{}, Config{Seed: 1, Latency: 30 * time.Millisecond})
	start := time.Now()
	if _, err := f.Fetch(context.Background(), &shop.FetchRequest{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("fetch returned after %v, want ≥30ms", d)
	}
	if s := f.Stats(); s.Delays != 1 {
		t.Errorf("delays = %d", s.Delays)
	}
}

func TestFetcherHangReleasedByClose(t *testing.T) {
	f := NewFetcher(okFetcher{}, Config{Seed: 1, HangRate: 1})
	done := make(chan error, 1)
	go func() {
		_, err := f.Fetch(context.Background(), &shop.FetchRequest{})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("hung fetch returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	f.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInjected) {
			t.Errorf("released hang err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not release the hung fetch")
	}
	if s := f.Stats(); s.Hangs != 1 {
		t.Errorf("hangs = %d", s.Hangs)
	}
}

func TestFetcherDisabledPassesThrough(t *testing.T) {
	f := NewFetcher(okFetcher{}, Config{Seed: 1, ErrRate: 1, HangRate: 0})
	f.SetEnabled(false)
	for i := 0; i < 10; i++ {
		if _, err := f.Fetch(context.Background(), &shop.FetchRequest{}); err != nil {
			t.Fatalf("disabled injector failed: %v", err)
		}
	}
	if s := f.Stats(); s.Total() != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// echoServer serves one echo method over the given network.
func echoServer(t *testing.T, netw transport.Network, addr string) transport.Listener {
	t.Helper()
	lis, err := netw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(lis)
	srv.Handle("echo", func(raw json.RawMessage) (any, error) {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, err
		}
		return s, nil
	})
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return lis
}

func TestFabricCleanPassThrough(t *testing.T) {
	fab := NewFabric(transport.NewInproc(), Config{Seed: 1})
	echoServer(t, fab, "svc")
	cli, err := transport.DialClient(fab, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var out string
	if err := cli.CallCtx(context.Background(), "echo", "hi", &out); err != nil || out != "hi" {
		t.Fatalf("echo through clean fabric: %q, %v", out, err)
	}
}

func TestFabricInjectsErrors(t *testing.T) {
	fab := NewFabric(transport.NewInproc(), Config{Seed: 1, ErrRate: 1})
	fab.SetEnabled(false) // boot cleanly
	echoServer(t, fab, "svc")
	cli, err := transport.DialClient(fab, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	fab.SetEnabled(true)
	var out string
	if err := cli.CallCtx(context.Background(), "echo", "hi", &out); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if s := fab.Stats(); s.Errors == 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFabricDropTearsDownConnection(t *testing.T) {
	fab := NewFabric(transport.NewInproc(), Config{Seed: 1, DropRate: 1})
	fab.SetEnabled(false)
	echoServer(t, fab, "svc")
	conn, err := fab.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	fab.SetEnabled(true)
	if err := conn.Send("x"); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("dropped send err = %v, want ErrClosed", err)
	}
	// The connection is really gone, not just the one op.
	fab.SetEnabled(false)
	if err := conn.Send("x"); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("send after drop err = %v, want ErrClosed", err)
	}
	if s := fab.Stats(); s.Drops != 1 {
		t.Errorf("drops = %d", s.Drops)
	}
}

func TestFabricHangRespectsCallTimeout(t *testing.T) {
	// A hung send plus a per-call timeout: the deadline cannot interrupt
	// the injected hang itself (faults fire before the wrapped conn sees
	// the frame), but closing the fabric must release it.
	fab := NewFabric(transport.NewInproc(), Config{Seed: 1, HangRate: 1})
	fab.SetEnabled(false)
	echoServer(t, fab, "svc")
	cli, err := transport.DialClient(fab, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	fab.SetEnabled(true)
	done := make(chan error, 1)
	go func() { done <- cli.CallCtx(context.Background(), "echo", "hi", nil) }()
	select {
	case err := <-done:
		t.Fatalf("hung call returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	fab.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInjected) {
			t.Errorf("released call err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fabric Close did not release the hung call")
	}
}

func TestFabricDeadlineForwarding(t *testing.T) {
	// With zero injection the chaos conn must still forward deadlines so
	// transport.Client timeouts work through it: dial a mute listener and
	// expect ErrCallTimeout.
	inner := transport.NewInproc()
	fab := NewFabric(inner, Config{Seed: 1})
	lis, err := fab.Listen("mute")
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
				var v json.RawMessage
				for conn.Recv(&v) == nil {
				}
			}()
		}
	}()
	defer lis.Close()
	cli, err := transport.DialClient(fab, "mute")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	if err := cli.CallCtx(ctx, "echo", "hi", nil); !errors.Is(err, transport.ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
}
