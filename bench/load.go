package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pricesheriff/internal/history"
	"pricesheriff/internal/measurement"
	"pricesheriff/internal/store"
)

// sample is the outcome of one operation.
type sample struct {
	At      time.Duration // the due time, from the start of the phase
	Latency time.Duration // from the due time to the result in hand
	Verdict verdict
	Late    bool // sent more than the late-dispatch limit after it was due
}

// phaseResult is what one phase measured, indexed like its plan.
type phaseResult struct {
	Checks []sample
	Views  []sample
	Wall   time.Duration

	mu       sync.Mutex
	failures int
	firstWhy string // the first failure, for the operator
}

func (r *phaseResult) fail(what, why string) {
	r.mu.Lock()
	if r.failures == 0 {
		r.firstWhy = what + ": " + why
	}
	r.failures++
	r.mu.Unlock()
}

// runner drives phases against one deployment and remembers which checks
// finished, so that later views can read them back.
type runner struct {
	d     *deployment
	done  []viewTarget  // by global check index, across phases
	ready []atomic.Bool // done[i] is published
	next  int           // global index of the next phase's first check
}

// newRunner allocates every buffer the phases of a run will fill, so that
// the harness adds nothing to the retained-memory reading.
func newRunner(d *deployment, totalChecks int) *runner {
	return &runner{d: d, done: make([]viewTarget, totalChecks), ready: make([]atomic.Bool, totalChecks)}
}

func newPhaseResult(p plan) *phaseResult {
	return &phaseResult{Checks: make([]sample, len(p.Checks)), Views: make([]sample, len(p.ViewPick))}
}

// run executes one plan: on its schedule when it has one (the measured
// phase, an open loop), otherwise with inFlight workers each sending its next
// operation when the previous one returns (warm-up).
// res comes from newPhaseResult, allocated before any baseline is read.
func (r *runner) run(p plan, res *phaseResult, inFlight int) {
	base := r.next
	r.next += len(p.Checks)
	every := r.d.g.ViewEveryChecks
	lateLimit := time.Duration(r.d.g.LateDispatchMS * float64(time.Millisecond))
	start := time.Now()

	if p.Span > 0 {
		var wg sync.WaitGroup
		for i := range p.Checks {
			due := start.Add(p.Checks[i].Due)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			late := time.Since(due) > lateLimit
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r.check(p, res, base, i, start, due, late)
			}(i)
			if (i+1)%every == 0 {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					r.view(p, res, base, k, start, due, late)
				}((i+1)/every - 1)
			}
		}
		wg.Wait()
	} else {
		var nextOp atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < inFlight; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(nextOp.Add(1)) - 1
					if i >= len(p.Checks) {
						return
					}
					r.check(p, res, base, i, start, time.Now(), false)
					if (i+1)%every == 0 {
						r.view(p, res, base, (i+1)/every-1, start, time.Now(), false)
					}
				}
			}()
		}
		wg.Wait()
	}
	res.Wall = time.Since(start)
}

// check runs one whole price check through the system's front door and
// judges what came back.
func (r *runner) check(p plan, res *phaseResult, base, i int, start, due time.Time, late bool) {
	op := p.Checks[i]
	out, err := r.d.sys.PriceCheckContext(context.Background(), r.d.users[op.User], r.d.urls[op.URL])
	lat := time.Since(due)
	v, why := judge(out, err, r.d.exp)
	res.Checks[i] = sample{At: due.Sub(start), Latency: lat, Verdict: v, Late: late}
	if v != valid {
		res.fail(fmt.Sprintf("check %d (%s)", i, v), why)
		return
	}
	r.done[base+i] = viewTarget{JobID: out.JobID, URL: out.URL, Rows: len(out.Rows) - 1}
	r.ready[base+i].Store(true)
}

// pick resolves a view's draw to an earlier check: uniformly over the
// preloaded jobs and every check sent at least ViewLagChecks before the
// view, stepping back past any that did not finish valid.
func (r *runner) pick(frac float64, sent int) viewTarget {
	pre := len(r.d.preload)
	eligible := pre + sent - r.d.g.ViewLagChecks
	if eligible < pre {
		eligible = pre
	}
	at := int(frac * float64(eligible))
	for ; at >= pre; at-- {
		if r.ready[at-pre].Load() {
			return r.done[at-pre]
		}
	}
	return r.d.preload[at]
}

// view is what a returning user does with an earlier check: the stored
// response rows, the stored-procedure spread, and the price series of its
// URL, downsampled as the dashboard draws it.
func (r *runner) view(p plan, res *phaseResult, base, k int, start, due time.Time, late bool) {
	t := r.pick(p.ViewPick[k], base+(k+1)*r.d.g.ViewEveryChecks)
	ctx := context.Background()
	why := ""
	rows, err := r.d.sys.DB().SelectCtx(ctx, store.Query{
		Table: measurement.ResponsesTable.Name, Eq: map[string]any{"job_id": t.JobID},
	})
	var spread measurement.SpreadResult
	if err == nil {
		err = r.d.sys.DB().CallProcCtx(ctx, "price_spread", t.JobID, &spread)
	}
	var buckets []history.Bucket
	if err == nil {
		pts := r.d.sys.History().Range(historyKey(t.URL, r.d.g.ViewCountry), time.Time{}, time.Time{})
		buckets = history.Downsample(pts, 60)
	}
	lat := time.Since(due)
	switch {
	case err != nil:
		why = err.Error()
	case len(rows) != t.Rows:
		why = fmt.Sprintf("%d stored rows for %s, want %d", len(rows), t.JobID, t.Rows)
	case spread.Responses != t.Rows || spread.MinEUR <= 0 || spread.MaxEUR < spread.MinEUR:
		why = fmt.Sprintf("price_spread(%s) = %+v over %d rows", t.JobID, spread, t.Rows)
	case len(buckets) == 0:
		why = "no price history for " + t.URL
	}
	v := valid
	if why != "" {
		v = invalid
		if err != nil {
			v = failed
		}
		res.fail(fmt.Sprintf("view %d (%s)", k, v), why)
	}
	res.Views[k] = sample{At: due.Sub(start), Latency: lat, Verdict: v, Late: late}
}
