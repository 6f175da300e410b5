package core

import (
	"time"

	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/obs"
)

// coreMetrics instruments the user-facing five-step protocol as seen by
// the submitting side: whole-check latency and outcome counts. A nil
// *coreMetrics disables instrumentation.
type coreMetrics struct {
	checks       *obs.Counter
	checkErrors  *obs.Counter
	piiBlocked   *obs.Counter
	msDials      *obs.Counter
	checkSeconds *obs.Histogram
	// checkSources counts scheduled checks by the tier that answered them
	// (coordinator.Source*); attachFallbacks counts attaches that ended in
	// a fan-out of their own, by why the source could not be shared.
	checkSources    *obs.Series[obs.Counter]
	attachFallbacks *obs.Series[obs.Counter]
}

func newCoreMetrics(reg *obs.Registry) *coreMetrics {
	m := &coreMetrics{
		checks:       reg.Counter("sheriff_core_checks_total"),
		checkErrors:  reg.Counter("sheriff_core_check_errors_total"),
		piiBlocked:   reg.Counter("sheriff_core_pii_blocked_total"),
		msDials:      reg.Counter("sheriff_core_ms_dials_total"),
		checkSeconds: reg.Histogram("sheriff_core_check_seconds"),
		checkSources: obs.NewSeries(func(source string) *obs.Counter {
			return reg.Counter("sheriff_core_check_source_total", "source", source)
		}),
		attachFallbacks: obs.NewSeries(func(reason string) *obs.Counter {
			return reg.Counter("sheriff_core_attach_fallback_total", "reason", reason)
		}),
	}
	// Every value is known: register them all, so a scrape shows zeros
	// before the first attach instead of missing series.
	for _, source := range []string{coordinator.SourceFanout, coordinator.SourceCoalesced, coordinator.SourceCached} {
		m.checkSources.With(source)
	}
	for _, reason := range []string{"gone", "partial", "canceled", "unreachable"} {
		m.attachFallbacks.With(reason)
	}
	return m
}

// checkSource counts one scheduled check under the tier whose rows it
// returns: fanout (including every fallback), coalesced or cached.
func (m *coreMetrics) checkSource(source string) {
	if m == nil {
		return
	}
	m.checkSources.With(source).Inc()
}

// attachFallback counts one attach that could not be served: gone (the
// server no longer knows the job), partial, canceled, or unreachable.
func (m *coreMetrics) attachFallback(reason string) {
	if m == nil {
		return
	}
	m.attachFallbacks.With(reason).Inc()
}

// checkDone records one finished check; traceID, when non-empty, becomes
// the latency bucket's exemplar so the histogram links to a real trace.
func (m *coreMetrics) checkDone(t0 time.Time, traceID string, err error) {
	if m == nil {
		return
	}
	m.checks.Inc()
	m.checkSeconds.ObserveSinceTrace(t0, traceID)
	if err != nil {
		m.checkErrors.Inc()
	}
}

func (m *coreMetrics) piiRejected() {
	if m == nil {
		return
	}
	m.piiBlocked.Inc()
}

// msDialed counts one dial of a pooled measurement-server connection: the
// first check routed to a server, and every re-dial after its connection
// broke. Far below the check count on a healthy deployment.
func (m *coreMetrics) msDialed() {
	if m == nil {
		return
	}
	m.msDials.Inc()
}
