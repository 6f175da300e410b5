package shard

import "pricesheriff/internal/obs"

// Metrics instruments the sharded data plane. A nil *Metrics disables
// instrumentation (the obs idiom used across the system).
type Metrics struct {
	shardOps    *obs.Series[obs.Counter] // routed operations, by shard
	methodOps   *obs.Series[obs.Counter] // routed operations, by method
	ringVersion *obs.Gauge               // current placement epoch
	memberCount *obs.Gauge               // shards on the current ring
	rebalancing *obs.Gauge               // 1 while a handoff window is open
	keysMoved   *obs.Counter             // rows streamed to new owners
	bytesMoved  *obs.Counter             // snapshot bytes shipped during rebalances
	misroutes   *obs.Counter             // ID lookups that probed extra shards
	retries     *obs.Counter             // keyed ops retried after a shard error
}

// NewMetrics builds the shard metric bundle on a registry.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		shardOps: obs.NewSeries(func(shard string) *obs.Counter {
			return reg.Counter("sheriff_shard_ops_total", "shard", shard)
		}),
		methodOps: obs.NewSeries(func(method string) *obs.Counter {
			return reg.Counter("sheriff_shard_op_method_total", "method", method)
		}),
		ringVersion: reg.Gauge("sheriff_shard_ring_version"),
		memberCount: reg.Gauge("sheriff_shard_members"),
		rebalancing: reg.Gauge("sheriff_shard_rebalancing"),
		keysMoved:   reg.Counter("sheriff_shard_rebalance_keys_moved_total"),
		bytesMoved:  reg.Counter("sheriff_shard_rebalance_bytes_moved_total"),
		misroutes:   reg.Counter("sheriff_shard_router_misroutes_total"),
		retries:     reg.Counter("sheriff_shard_router_retries_total"),
	}
}

// op counts one routed operation against a shard.
func (m *Metrics) op(shardID, method string) {
	if m == nil {
		return
	}
	m.shardOps.With(shardID).Inc()
	m.methodOps.With(method).Inc()
}

func (m *Metrics) ring(r *Ring) {
	if m == nil {
		return
	}
	m.ringVersion.Set(r.Version)
	m.memberCount.Set(int64(len(r.Members)))
}

func (m *Metrics) window(open bool) {
	if m == nil {
		return
	}
	if open {
		m.rebalancing.Set(1)
	} else {
		m.rebalancing.Set(0)
	}
}

func (m *Metrics) moved(keys, bytes int) {
	if m == nil {
		return
	}
	m.keysMoved.Add(int64(keys))
	m.bytesMoved.Add(int64(bytes))
}

func (m *Metrics) misroute(extraProbes int) {
	if m == nil || extraProbes <= 0 {
		return
	}
	m.misroutes.Add(int64(extraProbes))
}

func (m *Metrics) retry() {
	if m == nil {
		return
	}
	m.retries.Inc()
}
