package core

import (
	"sync"
	"time"
)

// AutoScaler implements the paper's elastic policy (Sects. 3.4 and 5): it
// watches the Coordinator's pending-job counters and dynamically attaches
// Measurement servers when the per-server load crosses a safe threshold —
// the production deployment used two thirds of the measured critical
// workload (≈10 parallel tasks) as that threshold.
type AutoScaler struct {
	System *System
	// Threshold is the mean pending jobs per online server above which a
	// new server is attached (default 7, two thirds of the 10-task
	// critical point).
	Threshold float64
	// MaxServers caps the pool (default 8).
	MaxServers int
	// Cooldown is the minimum time between attachments, so a single spike
	// does not over-provision (default 2s; the real system would use
	// minutes).
	Cooldown time.Duration

	mu        sync.Mutex
	lastScale time.Time
	scaled    int
	done      chan struct{}
	once      sync.Once
}

// NewAutoScaler builds a scaler with defaults.
func NewAutoScaler(sys *System) *AutoScaler {
	return &AutoScaler{
		System:     sys,
		Threshold:  7,
		MaxServers: 8,
		Cooldown:   2 * time.Second,
		done:       make(chan struct{}),
	}
}

// Tick evaluates the policy once, returning whether a server was added.
func (a *AutoScaler) Tick() (bool, error) {
	snapshot := a.System.Coord.Servers.Snapshot()
	online, pending := 0, 0
	for _, s := range snapshot {
		if s.Online {
			online++
			pending += s.Pending
		}
	}
	if online == 0 || online >= a.MaxServers {
		return false, nil
	}
	if float64(pending)/float64(online) < a.Threshold {
		return false, nil
	}
	a.mu.Lock()
	if time.Since(a.lastScale) < a.Cooldown {
		a.mu.Unlock()
		return false, nil
	}
	a.lastScale = time.Now()
	a.mu.Unlock()

	if err := a.System.AddMeasurementServer(); err != nil {
		return false, err
	}
	a.mu.Lock()
	a.scaled++
	a.mu.Unlock()
	return true, nil
}

// Scaled returns how many servers this scaler has attached.
func (a *AutoScaler) Scaled() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.scaled
}

// Run evaluates the policy every interval until Stop.
func (a *AutoScaler) Run(interval time.Duration) {
	ticker := time.NewTicker(interval) // lint:allow background scaler, not a request path
	defer ticker.Stop()
	for {
		select {
		case <-a.done:
			return
		case <-ticker.C:
			a.Tick()
		}
	}
}

// Stop halts a running scaler.
func (a *AutoScaler) Stop() {
	a.once.Do(func() { close(a.done) })
}
