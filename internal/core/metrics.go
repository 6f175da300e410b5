package core

import (
	"time"

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
}

func newCoreMetrics(reg *obs.Registry) *coreMetrics {
	return &coreMetrics{
		checks:       reg.Counter("sheriff_core_checks_total"),
		checkErrors:  reg.Counter("sheriff_core_check_errors_total"),
		piiBlocked:   reg.Counter("sheriff_core_pii_blocked_total"),
		msDials:      reg.Counter("sheriff_core_ms_dials_total"),
		checkSeconds: reg.Histogram("sheriff_core_check_seconds"),
	}
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
