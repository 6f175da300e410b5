package history

import (
	"time"

	"pricesheriff/internal/obs"
)

// Metrics is the telemetry bundle of the durability layer and the watch
// scheduler. All series are created eagerly so a freshly booted system
// exports them at zero. A nil *Metrics disables instrumentation.
type Metrics struct {
	reg *obs.Registry

	walBytes     *obs.Gauge   // sheriff_history_wal_bytes
	walSegments  *obs.Gauge   // sheriff_history_wal_segments
	walRecords   *obs.Counter // sheriff_history_wal_records_total
	walReplayed  *obs.Counter // sheriff_history_wal_replayed_total
	walTornTails *obs.Counter // sheriff_history_wal_torn_tails_total
	walErrors    *obs.Counter // sheriff_history_wal_errors_total
	compactions  *obs.Counter // sheriff_history_compactions_total
	points       *obs.Counter // sheriff_history_points_total

	watchActive  *obs.Gauge   // sheriff_watch_active
	watchRuns    *obs.Counter // sheriff_watch_runs_total
	watchRunErrs *obs.Counter // sheriff_watch_run_errors_total
	watchSeconds *obs.Histogram
}

// NewMetrics builds the history metric bundle on a registry.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		reg:          reg,
		walBytes:     reg.Gauge("sheriff_history_wal_bytes"),
		walSegments:  reg.Gauge("sheriff_history_wal_segments"),
		walRecords:   reg.Counter("sheriff_history_wal_records_total"),
		walReplayed:  reg.Counter("sheriff_history_wal_replayed_total"),
		walTornTails: reg.Counter("sheriff_history_wal_torn_tails_total"),
		walErrors:    reg.Counter("sheriff_history_wal_errors_total"),
		compactions:  reg.Counter("sheriff_history_compactions_total"),
		points:       reg.Counter("sheriff_history_points_total"),
		watchActive:  reg.Gauge("sheriff_watch_active"),
		watchRuns:    reg.Counter("sheriff_watch_runs_total"),
		watchRunErrs: reg.Counter("sheriff_watch_run_errors_total"),
		watchSeconds: reg.Histogram("sheriff_watch_run_seconds"),
	}
	return m
}

func (m *Metrics) walAppended(records int, bytes int64) {
	if m == nil {
		return
	}
	m.walRecords.Add(int64(records))
	m.walBytes.Add(bytes)
}

func (m *Metrics) walSized(totalBytes int64, segments int) {
	if m == nil {
		return
	}
	m.walBytes.Set(totalBytes)
	m.walSegments.Set(int64(segments))
}

func (m *Metrics) replayed(records int) {
	if m == nil {
		return
	}
	m.walReplayed.Add(int64(records))
}

func (m *Metrics) tornTail() {
	if m == nil {
		return
	}
	m.walTornTails.Inc()
}

func (m *Metrics) walError() {
	if m == nil {
		return
	}
	m.walErrors.Inc()
}

func (m *Metrics) compacted() {
	if m == nil {
		return
	}
	m.compactions.Inc()
}

func (m *Metrics) pointAppended() {
	if m == nil {
		return
	}
	m.points.Inc()
}

func (m *Metrics) watchCount(n int) {
	if m == nil {
		return
	}
	m.watchActive.Set(int64(n))
}

func (m *Metrics) watchRan(t0 time.Time, err error) {
	if m == nil {
		return
	}
	m.watchRuns.Inc()
	m.watchSeconds.ObserveSince(t0)
	if err != nil {
		m.watchRunErrs.Inc()
	}
}

func (m *Metrics) verdict(kind string) {
	if m == nil {
		return
	}
	m.reg.Counter("sheriff_watch_verdicts_total", "verdict", kind).Inc()
}
