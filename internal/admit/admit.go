// Package admit bounds the number of concurrently admitted requests per
// measurement server, with a FIFO wait queue and deadline-aware load
// shedding: a request whose context will expire before its queue position
// can clear is rejected immediately with ErrOverload instead of waiting
// out a deadline it cannot meet. This is the reproduction's answer to the
// paper's traffic spikes (Fig. 5) and elastic measurement tier
// (Sect. 3.4): when a server cannot take more work, the coordinator's
// least-pending heuristic routes around it (see Overloaded).
package admit

import (
	"context"
	"math"
	"sync"
	"time"

	"pricesheriff/internal/transport"
)

// ErrOverload is returned when a request is shed at admission. It
// implements transport.RPCCoder (RPCCode "overload") so errors.Is keeps
// matching it on the far side of an RPC boundary.
var ErrOverload = transport.NewCodedError("admit: server overloaded, request shed", "overload")

// Defaults used when the corresponding Config field is zero.
const (
	DefaultServiceTime = 2 * time.Second
	DefaultWindow      = 3 * time.Second
)

// Config sizes a Controller.
type Config struct {
	// Limit is the maximum number of concurrently admitted requests
	// (clamped to at least 1).
	Limit int
	// MaxQueue bounds the FIFO wait queue; arrivals beyond it are shed
	// regardless of deadline. Zero means 4×Limit.
	MaxQueue int
	// ServiceTime seeds the estimate of how long one admitted request
	// holds its slot; releases refine it with an EWMA. Zero means
	// DefaultServiceTime.
	ServiceTime time.Duration
	// Window is how long Overloaded keeps reporting true after a shed,
	// so heartbeats broadcast the pressure. Zero means DefaultWindow.
	Window time.Duration
}

// Controller is a bounded-in-flight admission gate. The zero value is
// not usable; construct with New.
type Controller struct {
	limit    int
	maxQueue int
	window   time.Duration
	metrics  *Metrics
	now      func() time.Time // test hook

	mu       sync.Mutex
	inflight int
	queue    []*waiter
	svcEst   float64 // EWMA of observed slot hold time, seconds
	lastShed time.Time
}

type waiter struct {
	ready chan struct{}
	gone  bool // abandoned while queued; skip on handoff
}

// New builds a controller. A nil *Metrics disables instrumentation.
func New(cfg Config, m *Metrics) *Controller {
	if cfg.Limit < 1 {
		cfg.Limit = 1
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.Limit
	}
	if cfg.ServiceTime <= 0 {
		cfg.ServiceTime = DefaultServiceTime
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	return &Controller{
		limit:    cfg.Limit,
		maxQueue: cfg.MaxQueue,
		window:   cfg.Window,
		metrics:  m,
		now:      time.Now,
		svcEst:   cfg.ServiceTime.Seconds(),
	}
}

// Acquire admits the request or queues it FIFO behind the in-flight cap.
// It returns a release func that MUST be called exactly once when the
// admitted work finishes (it is idempotent, so a defer is safe).
//
// Shedding is O(1) and happens at arrival: if the queue is full, or the
// request carries a deadline that will expire before its queue position
// can clear (estimated from the EWMA of observed service times), Acquire
// returns ErrOverload immediately. A request abandoned while queued
// (context canceled or expired) returns the context's error.
//
// A nil Controller admits everything: servers leave the field unset to
// disable admission control.
func (c *Controller) Acquire(ctx context.Context) (release func(), err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c == nil {
		return func() {}, nil
	}
	c.mu.Lock()
	if c.inflight < c.limit && !c.hasLiveWaiters() {
		c.inflight++
		c.metrics.admitted(c.inflight)
		c.mu.Unlock()
		return c.releaser(c.now()), nil
	}
	pos := c.liveWaiters()
	if pos >= c.maxQueue || c.doomed(ctx, pos) {
		c.lastShed = c.now()
		c.mu.Unlock()
		c.metrics.shedOne()
		return nil, ErrOverload
	}
	w := &waiter{ready: make(chan struct{})}
	c.queue = append(c.queue, w)
	c.metrics.enqueued(pos + 1)
	c.mu.Unlock()

	select {
	case <-w.ready:
		// The releaser transferred its slot to us (inflight unchanged).
		return c.releaser(c.now()), nil
	case <-ctx.Done():
		c.mu.Lock()
		select {
		case <-w.ready:
			// Lost the race: a slot was handed to us just as the context
			// died. Hand it onward rather than leaking it.
			c.mu.Unlock()
			c.releaser(c.now())()
		default:
			w.gone = true
			c.metrics.abandoned(c.liveWaiters())
			c.mu.Unlock()
		}
		return nil, ctx.Err()
	}
}

// doomed reports whether a deadline-carrying request at queue position
// pos (0-based) cannot clear the queue in time: slots free in batches of
// limit roughly every service time.
func (c *Controller) doomed(ctx context.Context, pos int) bool {
	dl, ok := ctx.Deadline()
	if !ok {
		return false
	}
	batches := math.Ceil(float64(pos+1) / float64(c.limit))
	estWait := time.Duration(batches * c.svcEst * float64(time.Second))
	return c.now().Add(estWait).After(dl)
}

// releaser returns the one-shot release func for an admitted request.
func (c *Controller) releaser(start time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			// Refine the service-time estimate (EWMA, alpha 0.2).
			held := c.now().Sub(start).Seconds()
			c.svcEst = 0.8*c.svcEst + 0.2*held
			for len(c.queue) > 0 {
				w := c.queue[0]
				c.queue = c.queue[1:]
				if w.gone {
					continue
				}
				// Hand the slot straight to the oldest live waiter.
				close(w.ready)
				c.metrics.dequeued(c.liveWaiters(), c.inflight)
				c.mu.Unlock()
				return
			}
			c.inflight--
			c.metrics.released(c.inflight)
			c.mu.Unlock()
		})
	}
}

// hasLiveWaiters reports whether any queued waiter is still interested.
func (c *Controller) hasLiveWaiters() bool { return c.liveWaiters() > 0 }

// liveWaiters counts queued waiters that have not been abandoned.
func (c *Controller) liveWaiters() int {
	n := 0
	for _, w := range c.queue {
		if !w.gone {
			n++
		}
	}
	return n
}

// Inflight returns the number of currently admitted requests.
func (c *Controller) Inflight() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// Queued returns the number of live queued waiters; the measurement
// server folds it into its heartbeat pending count so the coordinator's
// least-pending heuristic sees queued pressure too.
func (c *Controller) Queued() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWaiters()
}

// Overloaded reports whether the server is under admission pressure:
// requests are queued right now, or a shed happened within the window.
// Heartbeats carry it to the coordinator so shed servers stop receiving
// new work until the pressure clears.
func (c *Controller) Overloaded() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.liveWaiters() > 0 {
		return true
	}
	return !c.lastShed.IsZero() && c.now().Sub(c.lastShed) < c.window
}
