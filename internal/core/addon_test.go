package core

import (
	"context"
	"errors"
	"testing"

	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/measurement"
	"pricesheriff/internal/transport"
)

// TestAddonOverCoordinatorRPC runs the add-on the way sheriffctl does:
// scheduling over a coordinator.Client, on the in-process fabric. A first
// check fans out, a second one is answered from the cache, and a submit the
// Measurement server refuses releases its job: the index keeps no entry
// for it, and the next check of that question fans out straight away
// rather than attaching to an answer that never existed.
func TestAddonOverCoordinatorRPC(t *testing.T) {
	sys, users, url, pricing := newFallbackSystem(t, 0)
	pricing.open()
	cli, err := coordinator.DialCoordinator(sys.Fabric(), sys.CoordAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	addon := NewAddon(sys.Fabric(), cli, nil)
	defer addon.Close()
	ctx := context.Background()

	res, err := addon.Check(ctx, users[0], url, "EUR", sys.Day(), "")
	wantValid(t, res, err, users[0].ID, 3+3)
	if res.Source != coordinator.SourceFanout || res.Server == "" {
		t.Fatalf("first check: source %q on server %q, want a fan-out", res.Source, res.Server)
	}
	settle(t, sys)
	again, err := addon.Check(ctx, users[1], url, "EUR", sys.Day(), "")
	wantValid(t, again, err, users[1].ID, 3+3)
	if again.Source != coordinator.SourceCached || again.JobID != res.JobID {
		t.Fatalf("second check: source %q job %s, want cached from %s", again.Source, again.JobID, res.JobID)
	}

	// The only Measurement server refuses every submit for a while.
	entries := func() int64 {
		return sys.Metrics().Gauge("sheriff_coordinator_verdict_index_entries").Value()
	}
	before := entries()
	sys.mu.Lock()
	front, ms := sys.measRPC[0], sys.meas[0]
	sys.mu.Unlock()
	addr := front.Addr()
	front.Close()
	lis, err := sys.Fabric().Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	refuser := transport.NewServer(lis)
	refused := errors.New("measurement: not now")
	transport.HandleTyped(refuser, "ms.check", func(context.Context, *measurement.CheckRequest) (any, error) {
		return nil, refused
	})
	go refuser.Serve()
	other := productURL(t, sys, "steampowered.com", 1)
	if res, err := addon.Check(ctx, users[0], other, "EUR", sys.Day(), ""); err == nil {
		t.Fatalf("a refused submit returned %+v", res)
	}
	if n := sys.Coord.PendingJobs(); n != 0 {
		t.Errorf("%d jobs pending after the refused submit, want 0", n)
	}
	if n := entries(); n != before {
		t.Errorf("verdict index holds %d entries after the refused submit, want %d", n, before)
	}

	// The server takes checks again: the same question fans out, with no
	// attach to fall back from.
	refuser.Close()
	if lis, err = sys.Fabric().Listen(addr); err != nil {
		t.Fatal(err)
	}
	back := measurement.NewRPCServer(ms, lis)
	go back.Serve()
	sys.mu.Lock()
	sys.measRPC[0] = back
	sys.mu.Unlock()
	next, err := sys.PriceCheckContext(ctx, users[1].ID, other)
	wantValid(t, next, err, users[1].ID, 3+3)
	if next.Source != coordinator.SourceFanout {
		t.Errorf("check after the refused submit: source %q, want a fan-out", next.Source)
	}
	for _, reason := range []string{"gone", "partial", "canceled", "unreachable"} {
		if n := attachFallbacks(sys, reason); n != 0 {
			t.Errorf("attach fallbacks{reason=%s} = %d, want 0", reason, n)
		}
	}
}
