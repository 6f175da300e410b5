package measurement

import (
	"context"
	"errors"
	"testing"
	"time"

	"pricesheriff/internal/admit"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/transport"
)

// snapshotHas reports whether the registry exports a series with the
// given full identity (name plus labels).
func snapshotHas(reg *obs.Registry, series string) bool {
	snap := reg.Snapshot()
	for _, p := range snap.Counters {
		if p.Series == series {
			return true
		}
	}
	for _, p := range snap.Gauges {
		if p.Series == series {
			return true
		}
	}
	return false
}

// TestRequestPlaneMetrics drives the whole request-plane metric bundle
// through a real RPC front-end: the server-side in-flight gauge, the
// admission queue/shed counters, and the cancellation-cause labels on the
// partial/retry-abort series.
func TestRequestPlaneMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	netw := transport.NewInproc()
	netw.Metrics = transport.NewMetrics(reg, "inproc")

	bf := &blockingFetcher{started: make(chan struct{})}
	srv := New("ms-plane", nil)
	srv.Metrics = NewMetrics(reg)
	srv.CheckDeadline = 30 * time.Second
	srv.Admit = admit.New(admit.Config{Limit: 1}, admit.NewMetrics(reg, "ms-plane"))
	srv.IPCs = []*IPC{{ID: "ipc-00-ES", IP: "10.0.0.3", Country: "ES", Fetcher: bf}}

	lis, err := netw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	front := NewRPCServer(srv, lis)
	go front.Serve()
	defer front.Close()
	cli, err := DialMeasurement(netw, front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// The hog takes the single admission slot and parks on its fetch.
	if err := cli.CheckCtx(context.Background(), &CheckRequest{JobID: "job-hog", URL: "http://shop.es/p/1", InitiatorHTML: "<html></html>"}); err != nil {
		t.Fatalf("Check(hog): %v", err)
	}
	<-bf.started

	// A second submission queues behind the cap; its ms.check handler
	// stays in flight server-side while it waits, so both the queue
	// counters and the RPC in-flight gauge are visibly non-zero.
	qctx, qcancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		queuedErr <- cli.CheckCtx(qctx, &CheckRequest{JobID: "job-queued", URL: "http://shop.es/p/2", InitiatorHTML: "<html></html>"})
	}()
	waitFor(t, 2*time.Second, "submission to queue", func() bool {
		return reg.Counter("sheriff_admit_queued", "server", "ms-plane").Value() == 1
	})
	if got := reg.Gauge("sheriff_admit_queue_depth", "server", "ms-plane").Value(); got != 1 {
		t.Errorf("admit_queue_depth = %d, want 1", got)
	}
	if got := reg.Gauge("sheriff_rpc_inflight", "fabric", "inproc").Value(); got != 1 {
		t.Errorf("rpc_inflight = %d, want 1 (queued ms.check handler)", got)
	}

	// A third, deadline-carrying submission cannot clear the queue in
	// time: shed with the typed overload error across the wire.
	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	if err := cli.CheckCtx(dctx, &CheckRequest{JobID: "job-doomed", URL: "http://shop.es/p/3", InitiatorHTML: "<html></html>"}); !errors.Is(err, admit.ErrOverload) {
		t.Fatalf("doomed submit = %v, want admit.ErrOverload", err)
	}
	if got := reg.Counter("sheriff_admit_shed_total", "server", "ms-plane").Value(); got != 1 {
		t.Errorf("admit_shed_total = %d, want 1", got)
	}

	// Abandon the queued submission; the slot queue drains and the
	// handler returns, emptying the in-flight gauge.
	qcancel()
	if err := <-queuedErr; err == nil {
		t.Fatal("abandoned queued submit returned nil")
	}
	waitFor(t, 2*time.Second, "abandoned waiter to be counted", func() bool {
		return reg.Counter("sheriff_admit_abandoned_total", "server", "ms-plane").Value() == 1
	})
	waitFor(t, 2*time.Second, "rpc in-flight gauge to drain", func() bool {
		return reg.Gauge("sheriff_rpc_inflight", "fabric", "inproc").Value() == 0
	})

	// Cancel the hog: the check completes with partial rows and the
	// partial/retry-abort series carry the caller_cancel cause.
	cctx, ccancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer ccancel()
	if err := cli.Cancel(cctx, "job-hog"); err != nil {
		t.Fatalf("Cancel(hog): %v", err)
	}
	if _, err := srv.WaitResults("job-hog", 2*time.Second); err != nil {
		t.Fatalf("hog never completed: %v", err)
	}
	if got := reg.Counter("sheriff_measurement_partial_checks_total", "cause", "caller_cancel").Value(); got != 1 {
		t.Errorf("partial_checks_total{cause=caller_cancel} = %d, want 1", got)
	}
	waitFor(t, 2*time.Second, "retry abort with caller_cancel cause", func() bool {
		return reg.Counter("sheriff_measurement_retry_aborts_total", "cause", "caller_cancel").Value() >= 1
	})

	// A short-deadline check against the same parked fetcher is cut by
	// its own deadline, driving the deadline cause label.
	srv.CheckDeadline = 40 * time.Millisecond
	if err := srv.StartCheck(&CheckRequest{JobID: "job-dl", URL: "http://shop.es/p/4", InitiatorHTML: "<html></html>"}); err != nil {
		t.Fatalf("StartCheck(dl): %v", err)
	}
	if _, err := srv.WaitResults("job-dl", 2*time.Second); err != nil {
		t.Fatalf("deadline check never completed: %v", err)
	}
	if got := reg.Counter("sheriff_measurement_partial_checks_total", "cause", "deadline").Value(); got != 1 {
		t.Errorf("partial_checks_total{cause=deadline} = %d, want 1", got)
	}

	// Every cause label of the partial/retry-abort families is
	// registered up front — overload included — so dashboards see the
	// full label space from boot.
	for _, series := range []string{
		`sheriff_measurement_partial_checks_total{cause="overload"}`,
		`sheriff_measurement_retry_aborts_total{cause="overload"}`,
		`sheriff_measurement_partial_checks_total{cause="deadline"}`,
		`sheriff_measurement_retry_aborts_total{cause="deadline"}`,
		`sheriff_rpc_inflight{fabric="inproc"}`,
		`sheriff_admit_queued{server="ms-plane"}`,
		`sheriff_admit_shed_total{server="ms-plane"}`,
	} {
		if !snapshotHas(reg, series) {
			t.Errorf("snapshot is missing series %s", series)
		}
	}
}
