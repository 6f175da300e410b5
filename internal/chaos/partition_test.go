package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"pricesheriff/internal/transport"
)

// startEcho serves a trivial "ping" method on netw at addr.
func startEcho(t *testing.T, netw transport.Network, addr string) *transport.Server {
	t.Helper()
	lis, err := netw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(lis)
	srv.Handle("ping", func(json.RawMessage) (any, error) { return "pong", nil })
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv
}

func mustPing(t *testing.T, netw transport.Network, addr string) {
	t.Helper()
	cli, err := transport.DialClient(netw, addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer cli.Close()
	var out string
	if err := cli.CallCtx(context.Background(), "ping", nil, &out); err != nil || out != "pong" {
		t.Fatalf("ping %s = %q, %v", addr, out, err)
	}
}

func TestBlockCutsNewDialsAndLiveConns(t *testing.T) {
	inner := transport.NewInproc()
	startEcho(t, inner, "srv-a")
	fab := NewFabric(inner, Config{Seed: 1})

	// A connection established before the cut must be severed by it.
	pre, err := transport.DialClient(fab, "srv-a")
	if err != nil {
		t.Fatal(err)
	}
	defer pre.Close()
	var out string
	if err := pre.CallCtx(context.Background(), "ping", nil, &out); err != nil {
		t.Fatalf("pre-cut call: %v", err)
	}

	fab.Block("srv-a")
	if !fab.Blocked("srv-a") {
		t.Fatal("Blocked() = false after Block")
	}
	if err := pre.CallCtx(context.Background(), "ping", nil, &out); err == nil {
		t.Error("call over a severed connection succeeded")
	}
	if _, err := fab.Dial("srv-a"); !errors.Is(err, ErrPartitioned) {
		t.Errorf("Dial during block = %v, want ErrPartitioned", err)
	}

	fab.Heal("srv-a")
	mustPing(t, fab, "srv-a") // fresh dials flow again
}

func TestBlockIsDirectionalAndPartitionIsNot(t *testing.T) {
	inner := transport.NewInproc()
	startEcho(t, inner, "node-a")
	startEcho(t, inner, "node-b")
	fabA := NewFabric(inner, Config{Seed: 1})
	fabB := NewFabric(inner, Config{Seed: 2})

	// Directional: A cannot reach B, but B still reaches A.
	fabA.Block("node-b")
	if _, err := fabA.Dial("node-b"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("a→b during block = %v, want ErrPartitioned", err)
	}
	mustPing(t, fabB, "node-a")
	fabA.Heal("node-b")

	// Symmetric: Partition cuts both directions, HealPartition restores.
	Partition(fabA, fabB, "node-a", "node-b")
	if _, err := fabA.Dial("node-b"); !errors.Is(err, ErrPartitioned) {
		t.Errorf("a→b during partition = %v, want ErrPartitioned", err)
	}
	if _, err := fabB.Dial("node-a"); !errors.Is(err, ErrPartitioned) {
		t.Errorf("b→a during partition = %v, want ErrPartitioned", err)
	}
	HealPartition(fabA, fabB, "node-a", "node-b")
	mustPing(t, fabA, "node-b")
	mustPing(t, fabB, "node-a")
}

func TestBlockForHealsAfterSeededDelay(t *testing.T) {
	inner := transport.NewInproc()
	startEcho(t, inner, "srv-h")
	fab := NewFabric(inner, Config{Seed: 7})

	d := fab.BlockFor("srv-h", 10*time.Millisecond, 30*time.Millisecond)
	if d < 10*time.Millisecond || d > 30*time.Millisecond {
		t.Fatalf("drawn heal delay %v outside [10ms, 30ms]", d)
	}
	if _, err := fab.Dial("srv-h"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("Dial during BlockFor = %v, want ErrPartitioned", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for fab.Blocked("srv-h") {
		if time.Now().After(deadline) {
			t.Fatal("BlockFor never healed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	mustPing(t, fab, "srv-h")
}

func TestBlockForScheduleIsSeeded(t *testing.T) {
	inner := transport.NewInproc()
	draw := func(seed int64) []time.Duration {
		fab := NewFabric(inner, Config{Seed: seed})
		defer fab.Close()
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = fab.BlockFor("nobody", time.Minute, 2*time.Minute)
			fab.Heal("nobody")
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("heal schedule diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical heal schedules")
	}
}

func TestKillerScheduleIsSeededAndBounded(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		k := NewKiller(seed)
		out := make([]time.Duration, 16)
		for i := range out {
			out[i] = k.Delay(50*time.Millisecond, 250*time.Millisecond)
			if out[i] < 50*time.Millisecond || out[i] > 250*time.Millisecond {
				t.Fatalf("kill delay %v outside [50ms, 250ms]", out[i])
			}
		}
		return out
	}
	a, b := draw(9), draw(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("kill schedule diverges at %d", i)
		}
	}
}

func TestKillAfterFiresAndStops(t *testing.T) {
	k := NewKiller(3)
	fired := make(chan struct{})
	d, _ := k.KillAfter(time.Millisecond, 5*time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatalf("kill (delay %v) never fired", d)
	}
	// A stopped timer must not fire: the victim exited on its own first.
	var exploded bool
	_, timer := k.KillAfter(20*time.Millisecond, 30*time.Millisecond, func() { exploded = true })
	if !timer.Stop() {
		t.Skip("timer already fired; scheduling too slow to assert Stop")
	}
	time.Sleep(60 * time.Millisecond)
	if exploded {
		t.Error("stopped kill timer fired anyway")
	}
}
