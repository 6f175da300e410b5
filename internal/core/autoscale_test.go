package core

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestAutoScalerAttachesUnderLoad(t *testing.T) {
	sys := newSystem(t) // 2 measurement servers
	sc := NewAutoScaler(sys)
	sc.Threshold = 3
	sc.Cooldown = 0

	// Idle: no scaling.
	added, err := sc.Tick()
	if err != nil || added {
		t.Fatalf("idle tick: added=%v err=%v", added, err)
	}

	// Simulate a press-spike backlog: jobs assigned but not yet completed.
	for i := 0; i < 8; i++ {
		if _, err := sys.Coord.Servers.Assign(); err != nil {
			t.Fatal(err)
		}
	}
	added, err = sc.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !added {
		t.Fatal("loaded tick did not attach a server")
	}
	if sys.MeasurementServers() != 3 {
		t.Errorf("servers = %d", sys.MeasurementServers())
	}
	if sc.Scaled() != 1 {
		t.Errorf("scaled = %d", sc.Scaled())
	}
}

func TestAutoScalerRespectsCooldownAndCap(t *testing.T) {
	sys := newSystem(t)
	sc := NewAutoScaler(sys)
	sc.Threshold = 1
	sc.Cooldown = time.Hour
	for i := 0; i < 6; i++ {
		sys.Coord.Servers.Assign()
	}
	if added, _ := sc.Tick(); !added {
		t.Fatal("first tick should scale")
	}
	// Within cooldown: no second attach even under load.
	if added, _ := sc.Tick(); added {
		t.Error("cooldown violated")
	}

	// Cap: with MaxServers at the current size, never scale.
	sc2 := NewAutoScaler(sys)
	sc2.Threshold = 0.1
	sc2.Cooldown = 0
	sc2.MaxServers = sys.MeasurementServers()
	if added, _ := sc2.Tick(); added {
		t.Error("cap violated")
	}
}

func TestAutoScalerRunLoop(t *testing.T) {
	sys := newSystem(t)
	sc := NewAutoScaler(sys)
	sc.Threshold = 2
	sc.Cooldown = 0
	go sc.Run(5 * time.Millisecond)
	defer sc.Stop()
	for i := 0; i < 10; i++ {
		sys.Coord.Servers.Assign()
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if sys.MeasurementServers() > 2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("run loop never scaled")
}

func TestSpikeEndToEndAutoscale(t *testing.T) {
	// A press-spike scenario against a slow retailer: concurrent price
	// checks pile up pending jobs, the running AutoScaler attaches
	// servers, and every check still completes.
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 4)
	slow, _ := sys.Mall.Shop("chegg.com")
	slow.Latency = 40 * time.Millisecond

	sc := NewAutoScaler(sys)
	sc.Threshold = 1.5
	sc.Cooldown = 0
	go sc.Run(5 * time.Millisecond)
	defer sc.Stop()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// One product each: a spike on a single product is one job.
			if _, err := sys.PriceCheckContext(context.Background(), users[i%4].ID, productURL(t, sys, "chegg.com", i)); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := sys.MeasurementServers(); got <= 2 {
		t.Errorf("servers = %d, spike did not trigger scaling", got)
	}
}
