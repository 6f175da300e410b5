package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/measurement"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/transport"
)

// Scheduler is the slice of the Coordinator the add-on speaks to: step 1
// of the protocol, and the release of a job whose check nobody will run.
// The in-process *coordinator.Coordinator and the RPC *coordinator.Client
// both satisfy it.
type Scheduler interface {
	ScheduleCheck(ctx context.Context, domain, initiatorID, key string, fresh bool) (coordinator.Placement, error)
	DropJob(jobID string)
}

// Addon is the browser add-on's side of the five-step price check of
// Sect. 3.2: the one client every check runs through, whether the System
// issues it in-process or sheriffctl issues it over TCP. It holds one
// pooled connection per Measurement server for all of its checks.
type Addon struct {
	coord     Scheduler
	blacklist *coordinator.PIIBlacklist
	tracer    *obs.Tracer
	log       *obs.Logger
	obs       *coreMetrics
	ms        msPool
}

// NewAddon builds an add-on client that schedules through coord and
// reaches Measurement servers over fabric, refusing the default PII
// blacklist. A nil tracer records no trace.
func NewAddon(fabric transport.Network, coord Scheduler, tracer *obs.Tracer) *Addon {
	return &Addon{
		coord:     coord,
		blacklist: coordinator.NewPIIBlacklist(nil),
		tracer:    tracer,
		ms:        msPool{fabric: fabric},
	}
}

// Close releases the pooled Measurement-server connections.
func (a *Addon) Close() { a.ms.close() }

// interactiveCap bounds how long a user waits for a check's rows, its own
// fan-out's or those of the job it attached to.
const interactiveCap = 30 * time.Second

// Check runs the protocol for user u: refuse a PII page, navigate to the
// product page (a real visit) and highlight the price (build the Tags
// Path), ask the Coordinator who answers this question, then either attach
// to the job already answering it or submit a fan-out of its own to the
// assigned Measurement server, and wait for the rows. day is the virtual
// day the page is priced on; origin tags the check ("" user-submitted,
// "watch" scheduler-driven, which always measures for itself). Canceling
// ctx aborts the check end to end, the server-side fan-out included; on
// early exit the partial rows gathered so far are returned alongside the
// error.
func (a *Addon) Check(ctx context.Context, u *User, url, curr string, day float64, origin string) (res *CheckResult, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if a.blacklist.Blocked(url) {
		a.obs.piiRejected()
		return nil, ErrPIIBlacklisted
	}
	domain, _, err := shop.ParseProductURL(url)
	if err != nil {
		return nil, err
	}

	// The submitter owns the trace: the Measurement server joins it via
	// the TraceID on the wire, and its spans land in the same tree. The
	// trace rides ctx so nested RPCs and log records correlate; spans are
	// attached per protocol step below.
	start := time.Now()
	tr, _ := a.tracer.Start("", "check "+url)
	tr.Annotate("user", u.ID)
	ctx = obs.WithTrace(ctx, tr)
	defer func() {
		if err != nil {
			tr.Annotate("error", err.Error())
			a.log.Warn(ctx, "price check failed", "url", url, "origin", origin, "err", err.Error())
		} else {
			a.log.Info(ctx, "price check done", "url", url, "origin", origin,
				"elapsed_ms", time.Since(start).Milliseconds())
		}
		tr.Finish()
		a.obs.checkDone(start, tr.ID(), err)
	}()

	// Step 1: the user navigates to the page (their own browser state).
	submit := tr.Span("submit")
	resp, err := u.Browser.BrowseProduct(obs.WithSpan(ctx, submit), u.Node.Fetcher, url, day)
	if err != nil {
		submit.EndErr(err)
		return nil, err
	}
	if resp.Status != 200 {
		submit.End()
		return nil, fmt.Errorf("core: product page returned status %d", resp.Status)
	}
	// The user highlights the price: the add-on builds the Tags Path.
	path, err := SelectPrice(resp.HTML)
	submit.EndErr(err)
	if err != nil {
		return nil, err
	}

	// Step 1 (continued): ask the Coordinator who answers this question — a
	// fresh job on a server, or a job already answering it for someone in
	// the same place.
	check := &measurement.CheckRequest{
		URL:           url,
		TagsPath:      path,
		InitiatorHTML: resp.HTML,
		InitiatorID:   u.ID,
		Currency:      curr,
		Day:           day,
		TraceID:       tr.ID(),
		Origin:        origin,
	}
	key := check.Key()
	res = &CheckResult{URL: url, Domain: domain, Currency: curr, Origin: origin}
	fresh := origin == "watch"
	var fallback []string
	for {
		sched := tr.Span("schedule", fallback...)
		place, err := a.coord.ScheduleCheck(obs.WithSpan(ctx, sched), domain, u.ID, key, fresh)
		sched.EndErr(err)
		if err != nil {
			return nil, err
		}
		if place.Source == coordinator.SourceFanout {
			return a.fanout(ctx, tr, place, check, res)
		}
		reason, err := a.attach(ctx, tr, place, check, res)
		if reason == "" {
			if err != nil {
				return nil, err
			}
			a.obs.checkSource(res.Source)
			return res, nil
		}
		// The source cannot be shared (it was cut, canceled, evicted, or
		// its server is unreachable): one fan-out of this check's own,
		// which also takes the key over from the source. A fresh schedule
		// is never an attach, so this loop turns at most once.
		a.obs.attachFallback(reason)
		a.log.Info(ctx, "attach fell back to a fan-out", "source_job", place.JobID, "reason", reason, "err", err.Error())
		fresh, fallback = true, []string{"fallback", reason}
	}
}

// fanout runs steps 2-5 for a check the Coordinator gave a job of its
// own: submit it to the assigned Measurement server, on the connection
// every check routed there shares, and wait for the rows.
func (a *Addon) fanout(ctx context.Context, tr *obs.Trace, place coordinator.Placement, check *measurement.CheckRequest, res *CheckResult) (*CheckResult, error) {
	a.obs.checkSource(coordinator.SourceFanout)
	tr.Annotate("job", place.JobID)
	res.JobID, res.Server, res.Source = place.JobID, place.ServerAddr, coordinator.SourceFanout

	await := tr.Span("await")
	check.JobID, check.ParentSpanID = place.JobID, await.ID()
	actx := obs.WithSpan(ctx, await)
	msCli, err := a.ms.call(ctx, place.ServerAddr, func(cli *measurement.Client) error {
		return cli.CheckCtx(actx, check)
	})
	if err != nil {
		await.EndErr(err)
		// Nobody will run this job: release it, so that no check attaches
		// to it and the index keeps no answer it never had.
		a.coord.DropJob(place.JobID)
		return nil, err
	}

	// Step 5: wait for the 'request finish' response, but never past the
	// 30-second interactive cap — whichever of the cap and the caller's
	// context dies first ends the wait. The wait ctx carries the trace but
	// deliberately no span: the results call stays span-free on the wire,
	// while the Done response's exported Measurement-side spans stitch
	// into tr.
	wctx, wcancel := context.WithTimeout(ctx, interactiveCap)
	defer wcancel()
	res.Rows, err = msCli.WaitResultsCtx(wctx, place.JobID)
	await.EndErr(err)
	res.AsOf = time.Now()
	if err != nil {
		if ctx.Err() != nil {
			// The caller is gone: tell the server to abort the vantage
			// fan-out rather than letting it run to the check deadline.
			// The cancel rides a fresh short-lived context (ctx is dead).
			cctx, ccancel := context.WithTimeout(context.Background(), 2*time.Second)
			msCli.Cancel(cctx, place.JobID)
			ccancel()
		}
		if len(res.Rows) == 0 {
			return nil, err
		}
		// Partial results: surface what arrived before the cut, the
		// deployed system's behavior for checks cut by their deadline.
	}
	return res, err
}

// attach answers a check from the job the Coordinator placed it on: one
// ms.attach round trip that returns the caller's own row plus that job's
// vantage rows once it has finished. It fills res and records one attach
// span. A non-empty reason means the source could not be shared and the
// caller is still alive: the check falls back to a fan-out. Nothing is
// stored and no history point is appended — the source check did both.
func (a *Addon) attach(ctx context.Context, tr *obs.Trace, place coordinator.Placement, check *measurement.CheckRequest, res *CheckResult) (reason string, err error) {
	sp := tr.Span("attach", "source_job", place.JobID, "source", place.Source)
	check.JobID = place.JobID
	actx, cancel := context.WithTimeout(obs.WithSpan(ctx, sp), interactiveCap)
	defer cancel()
	var rows []measurement.ResultRow
	_, err = a.ms.call(ctx, place.ServerAddr, func(cli *measurement.Client) error {
		var err error
		rows, err = cli.AttachCtx(actx, check, place.Source)
		return err
	})
	if err != nil {
		sp.EndErr(err)
		switch {
		case ctx.Err() != nil:
			return "", err // the caller itself gave up
		case errors.Is(err, measurement.ErrUnknownJob):
			return "gone", err
		case errors.Is(err, measurement.ErrSourcePartial):
			return "partial", err
		case errors.Is(err, measurement.ErrSourceCanceled):
			return "canceled", err
		default:
			return "unreachable", err
		}
	}
	res.JobID, res.Server, res.Source, res.Rows = place.JobID, place.ServerAddr, place.Source, rows
	res.AsOf = place.DoneAt
	if place.Source == coordinator.SourceCoalesced {
		res.AsOf = time.Now() // the source finished as this answer left
	}
	sp.Annotate("age_ms", strconv.FormatInt(time.Since(res.AsOf).Milliseconds(), 10))
	sp.End()
	tr.Annotate("job", place.JobID)
	return "", nil
}

// msPool pools the submitting side's connections: one multiplexed
// measurement client per server address, shared by every check the
// Coordinator routes there and dialed lazily on first use.
type msPool struct {
	fabric transport.Network
	obs    *coreMetrics

	mu    sync.Mutex
	conns map[string]*msConn
}

// call runs one call on the pooled connection to a Measurement server. If
// the connection died under it (the server restarted on its address since
// the last check) the call is made once more on a fresh dial. It returns
// the client the call last ran on.
func (p *msPool) call(ctx context.Context, addr string, call func(*measurement.Client) error) (*measurement.Client, error) {
	cli, err := p.client(addr)
	if err != nil {
		return nil, err
	}
	if err = call(cli); err != nil && cli.Broken() && ctx.Err() == nil {
		if cli, err = p.client(addr); err == nil {
			err = call(cli)
		}
	}
	return cli, err
}

// msConn is the pooled connection to one Measurement server; mu serializes
// its (re-)dial so concurrent first checks share one connection.
type msConn struct {
	mu  sync.Mutex
	cli *measurement.Client
}

// client returns the shared client for a Measurement server, dialing on
// first use and again once the previous connection has broken (the server
// restarted on its address, or the socket died).
func (p *msPool) client(addr string) (*measurement.Client, error) {
	p.mu.Lock()
	mc, ok := p.conns[addr]
	if !ok {
		if p.conns == nil {
			p.conns = make(map[string]*msConn)
		}
		mc = &msConn{}
		p.conns[addr] = mc
	}
	p.mu.Unlock()

	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.cli != nil {
		if !mc.cli.Broken() {
			return mc.cli, nil
		}
		mc.cli.Close()
		mc.cli = nil
	}
	cli, err := measurement.DialMeasurement(p.fabric, addr)
	if err != nil {
		return nil, err
	}
	p.obs.msDialed()
	mc.cli = cli
	return cli, nil
}

// close releases every pooled connection.
func (p *msPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, mc := range p.conns {
		mc.mu.Lock()
		if mc.cli != nil {
			mc.cli.Close()
		}
		mc.mu.Unlock()
	}
}
