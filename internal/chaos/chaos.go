// Package chaos is the seeded fault-injection fabric of the Price
// $heriff reproduction. The deployed system survived a year of flaky
// PlanetLab nodes and disappearing real-user peers (paper Sect. 10.3);
// this package makes those failures reproducible on demand so the
// fault-tolerance layer — per-call deadlines, retry/backoff, partial
// results, coordinator requeueing — can be exercised deterministically in
// tests and soak runs.
//
// Two wrappers share one injection engine:
//
//   - Fabric wraps a transport.Network: every Send on a wrapped
//     connection may be delayed, fail, hang, or drop the connection.
//   - Fetcher wraps a shop.Fetcher: every Fetch may be delayed, fail, or
//     hang — a vantage point whose page download never returns.
//
// All randomness flows from the configured seed. Concurrent callers draw
// from the shared source under a lock, so fault *rates* are exact and
// reproducible; the interleaving across goroutines is the scheduler's.
// Hung operations block until the wrapper's Close (or the connection's),
// mirroring a peer that silently vanished.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pricesheriff/internal/shop"
	"pricesheriff/internal/transport"
)

// ErrInjected is the error returned by injected failures; match with
// errors.Is.
var ErrInjected = errors.New("chaos: injected fault")

// Config sets fault probabilities and latency for one wrapper. The zero
// value injects nothing.
type Config struct {
	// Seed drives all injection decisions (0 is a valid, fixed seed).
	Seed int64
	// Latency is added to every operation; Jitter adds a further uniform
	// [0, Jitter) on top.
	Latency time.Duration
	Jitter  time.Duration
	// ErrRate is the probability in [0,1] that an operation fails with
	// ErrInjected.
	ErrRate float64
	// HangRate is the probability that an operation blocks until the
	// wrapper (or its connection) is closed.
	HangRate float64
	// DropRate is the probability that the underlying connection is torn
	// down mid-operation (Fabric only; Fetcher treats it as ErrRate).
	DropRate float64
}

// Stats counts injected faults.
type Stats struct {
	Delays, Errors, Hangs, Drops int64
}

// Total returns the number of injected faults (delays excluded).
func (s Stats) Total() int64 { return s.Errors + s.Hangs + s.Drops }

// verdict is one injection decision.
type verdict int

const (
	passOp verdict = iota
	errOp
	hangOp
	dropOp
)

// engine is the shared seeded decision core.
type engine struct {
	cfg     Config
	enabled atomic.Bool
	halt    chan struct{}
	once    sync.Once

	mu  sync.Mutex
	rng *rand.Rand

	delays, errors, hangs, drops atomic.Int64
}

func newEngine(cfg Config) *engine {
	e := &engine{cfg: cfg, halt: make(chan struct{}), rng: rand.New(rand.NewSource(cfg.Seed))}
	e.enabled.Store(true)
	return e
}

// decide draws one latency + verdict pair from the seeded source.
func (e *engine) decide() (time.Duration, verdict) {
	if !e.enabled.Load() {
		return 0, passOp
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	delay := e.cfg.Latency
	if e.cfg.Jitter > 0 {
		delay += time.Duration(e.rng.Int63n(int64(e.cfg.Jitter)))
	}
	// One uniform draw splits into [hang | drop | err | pass] bands, so
	// rates are exact rather than compounding.
	u := e.rng.Float64()
	switch {
	case u < e.cfg.HangRate:
		return delay, hangOp
	case u < e.cfg.HangRate+e.cfg.DropRate:
		return delay, dropOp
	case u < e.cfg.HangRate+e.cfg.DropRate+e.cfg.ErrRate:
		return delay, errOp
	default:
		return delay, passOp
	}
}

// sleep waits for d unless the engine halts first.
func (e *engine) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	e.delays.Add(1)
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-e.halt:
	}
}

// hangUntil blocks until the engine halts or extra closes (a connection
// teardown).
func (e *engine) hangUntil(extra <-chan struct{}) {
	e.hangs.Add(1)
	select {
	case <-e.halt:
	case <-extra:
	}
}

// sleepCtx waits for d unless the engine halts or ctx dies first; a dead
// context aborts the injected latency with its error.
func (e *engine) sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	e.delays.Add(1)
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-e.halt:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *engine) close() { e.once.Do(func() { close(e.halt) }) }

func (e *engine) stats() Stats {
	return Stats{
		Delays: e.delays.Load(),
		Errors: e.errors.Load(),
		Hangs:  e.hangs.Load(),
		Drops:  e.drops.Load(),
	}
}

// --- network fabric ---

// Fabric wraps a transport.Network with fault injection. Faults fire at
// send time on both dialed and accepted connections: an injected hang
// leaves the caller blocked exactly as a mute server would, an injected
// drop tears the connection down mid-call.
type Fabric struct {
	inner transport.Network
	eng   *engine

	// Partition state: blocked targets and the live dialed connections
	// per target, so Block can sever established traffic, not just new
	// dials. Deliberate injection — independent of SetEnabled.
	pmu     sync.Mutex
	blocked map[string]bool
	dialed  map[string]map[*chaosConn]bool
}

// NewFabric wraps inner. Injection starts enabled; SetEnabled(false)
// before boot gives a clean start-up, then flip it on for the soak.
func NewFabric(inner transport.Network, cfg Config) *Fabric {
	return &Fabric{
		inner:   inner,
		eng:     newEngine(cfg),
		blocked: make(map[string]bool),
		dialed:  make(map[string]map[*chaosConn]bool),
	}
}

// SetEnabled toggles injection at runtime (boot cleanly, then unleash).
func (f *Fabric) SetEnabled(v bool) { f.eng.enabled.Store(v) }

// Stats returns fault counts so far.
func (f *Fabric) Stats() Stats { return f.eng.stats() }

// Close releases every hung operation (they return ErrInjected) and stops
// further sleeps. The wrapped network is not closed.
func (f *Fabric) Close() error {
	f.eng.close()
	return nil
}

// Listen wraps the inner listener so accepted connections inject too.
func (f *Fabric) Listen(addr string) (transport.Listener, error) {
	lis, err := f.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &chaosListener{lis: lis, eng: f.eng}, nil
}

// Dial wraps the dialed connection; dials to a blocked target fail with
// ErrPartitioned.
func (f *Fabric) Dial(addr string) (transport.Conn, error) {
	f.pmu.Lock()
	cut := f.blocked[addr]
	f.pmu.Unlock()
	if cut {
		return nil, fmt.Errorf("chaos: dial %s: %w", addr, ErrPartitioned)
	}
	conn, err := f.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := newChaosConn(conn, f.eng)
	c.fab, c.target = f, addr
	// Track the conn; a Block that raced the dial severs it immediately.
	f.pmu.Lock()
	set := f.dialed[addr]
	if set == nil {
		set = make(map[*chaosConn]bool)
		f.dialed[addr] = set
	}
	set[c] = true
	cut = f.blocked[addr]
	f.pmu.Unlock()
	if cut {
		c.Close()
		return nil, fmt.Errorf("chaos: dial %s: %w", addr, ErrPartitioned)
	}
	return c, nil
}

// untrack removes a closed dialed connection from the partition index.
func (f *Fabric) untrack(c *chaosConn) {
	f.pmu.Lock()
	if set := f.dialed[c.target]; set != nil {
		delete(set, c)
		if len(set) == 0 {
			delete(f.dialed, c.target)
		}
	}
	f.pmu.Unlock()
}

type chaosListener struct {
	lis transport.Listener
	eng *engine
}

func (l *chaosListener) Accept() (transport.Conn, error) {
	conn, err := l.lis.Accept()
	if err != nil {
		return nil, err
	}
	return newChaosConn(conn, l.eng), nil
}

func (l *chaosListener) Close() error { return l.lis.Close() }
func (l *chaosListener) Addr() string { return l.lis.Addr() }

// TransportMetrics forwards the wrapped fabric's metric bundle so RPC
// servers behind the chaos layer still drive sheriff_rpc_inflight.
func (l *chaosListener) TransportMetrics() *transport.Metrics {
	if ms, ok := l.lis.(transport.MetricsSource); ok {
		return ms.TransportMetrics()
	}
	return nil
}

type chaosConn struct {
	conn transport.Conn
	eng  *engine
	dead chan struct{}
	once sync.Once

	// Set on dialed conns only: the owning fabric and dial target, so
	// Block can find and sever this conn and Close can untrack it.
	fab    *Fabric
	target string
}

func newChaosConn(conn transport.Conn, eng *engine) *chaosConn {
	return &chaosConn{conn: conn, eng: eng, dead: make(chan struct{})}
}

func (c *chaosConn) Send(v any) error {
	select {
	case <-c.dead:
		return transport.ErrClosed
	default:
	}
	delay, how := c.eng.decide()
	c.eng.sleep(delay)
	switch how {
	case errOp:
		c.eng.errors.Add(1)
		return ErrInjected
	case hangOp:
		c.eng.hangUntil(c.dead)
		return ErrInjected
	case dropOp:
		c.eng.drops.Add(1)
		c.Close()
		return transport.ErrClosed
	}
	return c.conn.Send(v)
}

func (c *chaosConn) Recv(v any) error { return c.conn.Recv(v) }

func (c *chaosConn) Close() error {
	c.once.Do(func() {
		close(c.dead)
		if c.fab != nil {
			c.fab.untrack(c)
		}
	})
	return c.conn.Close()
}

func (c *chaosConn) RemoteAddr() string { return c.conn.RemoteAddr() }

// SetDeadline forwards to the wrapped connection when it supports
// deadlines, so per-call timeouts keep working through the chaos layer.
func (c *chaosConn) SetDeadline(t time.Time) error {
	if dc, ok := c.conn.(transport.DeadlineConn); ok {
		return dc.SetDeadline(t)
	}
	return nil
}

// --- page fetcher ---

// Fetcher wraps a shop.Fetcher with fault injection: the vantage point
// whose page download is slow, failing, or never returns.
type Fetcher struct {
	inner shop.Fetcher
	eng   *engine
}

// NewFetcher wraps inner with its own seeded engine.
func NewFetcher(inner shop.Fetcher, cfg Config) *Fetcher {
	return &Fetcher{inner: inner, eng: newEngine(cfg)}
}

// SetEnabled toggles injection at runtime.
func (f *Fetcher) SetEnabled(v bool) { f.eng.enabled.Store(v) }

// Stats returns fault counts so far.
func (f *Fetcher) Stats() Stats { return f.eng.stats() }

// Close releases hung fetches; they return ErrInjected.
func (f *Fetcher) Close() error {
	f.eng.close()
	return nil
}

// Fetch implements shop.Fetcher. Drop verdicts count as errors (a page
// fetch has no connection of its own to tear down). Injected latency and
// hangs abort promptly when ctx dies: a canceled check does not sit out
// the injected delay, and a hung fetch released by its caller's deadline
// returns the context's error rather than blocking until Close.
func (f *Fetcher) Fetch(ctx context.Context, req *shop.FetchRequest) (*shop.FetchResponse, error) {
	delay, how := f.eng.decide()
	if err := f.eng.sleepCtx(ctx, delay); err != nil {
		return nil, err
	}
	switch how {
	case errOp, dropOp:
		f.eng.errors.Add(1)
		return nil, ErrInjected
	case hangOp:
		f.eng.hangs.Add(1)
		select {
		case <-f.eng.halt:
			return nil, ErrInjected
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return f.inner.Fetch(ctx, req)
}
