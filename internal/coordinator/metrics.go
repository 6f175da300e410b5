package coordinator

import "pricesheriff/internal/obs"

// Metrics instruments the Coordinator and its ServerList: job scheduling,
// whitelist rejections, heartbeat traffic and lapses, the per-server
// pending gauge of the Fig. 7 panel, and the online-peer gauge of the
// Fig. 16 panel. A nil *Metrics disables instrumentation.
type Metrics struct {
	serverPending *obs.Series[obs.Gauge] // by measurement-server address

	jobsScheduled       *obs.Counter
	jobsDone            *obs.Counter
	jobsRequeued        *obs.Counter
	whitelistRejections *obs.Counter
	heartbeats          *obs.Counter
	heartbeatLapses     *obs.Counter
	serversOnline       *obs.Gauge
	peersOnline         *obs.Gauge
	pendingJobs         *obs.Gauge
	verdictEntries      *obs.Gauge
}

// NewMetrics builds the coordinator metric bundle.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		serverPending: obs.NewSeries(func(addr string) *obs.Gauge {
			return reg.Gauge("sheriff_coordinator_server_pending", "server", addr)
		}),
		jobsScheduled:       reg.Counter("sheriff_coordinator_jobs_scheduled_total"),
		jobsDone:            reg.Counter("sheriff_coordinator_jobs_done_total"),
		jobsRequeued:        reg.Counter("sheriff_coordinator_jobs_requeued_total"),
		whitelistRejections: reg.Counter("sheriff_coordinator_whitelist_rejections_total"),
		heartbeats:          reg.Counter("sheriff_coordinator_heartbeats_total"),
		heartbeatLapses:     reg.Counter("sheriff_coordinator_heartbeat_lapses_total"),
		serversOnline:       reg.Gauge("sheriff_coordinator_servers_online"),
		peersOnline:         reg.Gauge("sheriff_coordinator_peers_online"),
		pendingJobs:         reg.Gauge("sheriff_coordinator_pending_jobs"),
		verdictEntries:      reg.Gauge("sheriff_coordinator_verdict_index_entries"),
	}
}

func (m *Metrics) jobScheduled(pending int) {
	if m == nil {
		return
	}
	m.jobsScheduled.Inc()
	m.pendingJobs.Set(int64(pending))
}

func (m *Metrics) jobDone(pending int) {
	if m == nil {
		return
	}
	m.jobsDone.Inc()
	m.pendingJobs.Set(int64(pending))
}

// jobRequeued records a job moved off a lapsed Measurement server.
func (m *Metrics) jobRequeued() {
	if m == nil {
		return
	}
	m.jobsRequeued.Inc()
}

// setVerdictEntries tracks the size of the verdict index (in-flight and
// finished entries together).
func (m *Metrics) setVerdictEntries(n int) {
	if m == nil {
		return
	}
	m.verdictEntries.Set(int64(n))
}

func (m *Metrics) whitelistRejected() {
	if m == nil {
		return
	}
	m.whitelistRejections.Inc()
}

func (m *Metrics) heartbeat() {
	if m == nil {
		return
	}
	m.heartbeats.Inc()
}

func (m *Metrics) heartbeatLapse() {
	if m == nil {
		return
	}
	m.heartbeatLapses.Inc()
}

func (m *Metrics) setServersOnline(n int) {
	if m == nil {
		return
	}
	m.serversOnline.Set(int64(n))
}

func (m *Metrics) setPeersOnline(n int) {
	if m == nil {
		return
	}
	m.peersOnline.Set(int64(n))
}

// setServerPending updates the per-server pending gauge (labeled by the
// measurement server's address).
func (m *Metrics) setServerPending(addr string, pending int) {
	if m == nil {
		return
	}
	m.serverPending.With(addr).Set(int64(pending))
}
