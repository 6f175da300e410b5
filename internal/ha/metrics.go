package ha

import "pricesheriff/internal/obs"

// Metrics instruments one HA replica: the term and role gauges behind
// /cluster.json, election and failover counters, log progress, and
// the per-standby replication-lag gauge the primary maintains. A nil
// *Metrics disables instrumentation.
type Metrics struct {
	reg *obs.Registry

	term       *obs.Gauge
	state      *obs.Gauge
	elections  *obs.Counter
	failovers  *obs.Counter
	appends    *obs.Counter
	lastIndex  *obs.Gauge
	commit     *obs.Gauge
	notPrimary *obs.Counter
}

// NewMetrics builds the HA metric bundle.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		reg:        reg,
		term:       reg.Gauge("sheriff_ha_term"),
		state:      reg.Gauge("sheriff_ha_state"),
		elections:  reg.Counter("sheriff_ha_elections_total"),
		failovers:  reg.Counter("sheriff_ha_failovers_total"),
		appends:    reg.Counter("sheriff_ha_entries_appended_total"),
		lastIndex:  reg.Gauge("sheriff_ha_log_last_index"),
		commit:     reg.Gauge("sheriff_ha_log_commit_index"),
		notPrimary: reg.Counter("sheriff_ha_not_primary_total"),
	}
}

func (m *Metrics) setTerm(t uint64) {
	if m == nil {
		return
	}
	m.term.Set(int64(t))
}

// setState publishes the role as 0=follower, 1=candidate, 2=primary.
func (m *Metrics) setState(s State) {
	if m == nil {
		return
	}
	m.state.Set(int64(s))
}

func (m *Metrics) election() {
	if m == nil {
		return
	}
	m.elections.Inc()
}

func (m *Metrics) failover() {
	if m == nil {
		return
	}
	m.failovers.Inc()
}

func (m *Metrics) appended() {
	if m == nil {
		return
	}
	m.appends.Inc()
}

func (m *Metrics) setLastIndex(i uint64) {
	if m == nil {
		return
	}
	m.lastIndex.Set(int64(i))
}

func (m *Metrics) setCommit(i uint64) {
	if m == nil {
		return
	}
	m.commit.Set(int64(i))
}

func (m *Metrics) notPrimaryHit() {
	if m == nil {
		return
	}
	m.notPrimary.Inc()
}

// setPeerLag updates the primary's replication-lag gauge for one standby
// (entries behind the primary's log end).
func (m *Metrics) setPeerLag(addr string, lag uint64) {
	if m == nil {
		return
	}
	m.reg.Gauge("sheriff_ha_replication_lag", "peer", addr).Set(int64(lag))
}
