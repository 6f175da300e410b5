package main

import (
	"strings"

	"pricesheriff/internal/obs"
)

// series sums the counters (or gauges) of one metric family whose label
// block contains every given fragment, e.g. series(pts, "x_total", `cache="doc"`).
func series(pts []obs.MetricPoint, name string, labels ...string) float64 {
	var sum float64
next:
	for _, p := range pts {
		base, block, _ := strings.Cut(p.Series, "{")
		if base != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(block, l) {
				continue next
			}
		}
		sum += float64(p.Value)
	}
	return sum
}

// exact reads the one series with exactly this identity, labels included.
func exact(pts []obs.MetricPoint, series string) float64 {
	for _, p := range pts {
		if p.Series == series {
			return float64(p.Value)
		}
	}
	return 0
}

// counterLayers turns the system's own counters, read before and after the
// measured phase, into per-check ratios: counts are taken where the work
// happens, by the code that does it, and only divided here.
func counterLayers(g *Grid, m *measured) []layerMetric {
	delta := func(name string, labels ...string) float64 {
		return series(m.after.Counters, name, labels...) - series(m.before.Counters, name, labels...)
	}
	gaugeDelta := func(name string) float64 {
		return series(m.after.Gauges, name) - series(m.before.Gauges, name)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	checks, views := float64(m.validChecks), float64(m.views)

	latencies := make([]float64, len(m.res.Checks))
	late := 0.0
	for i, s := range m.res.Checks {
		latencies[i] = float64(s.Latency) / 1e6
		if s.Late {
			late++
		}
	}
	docHits := delta("sheriff_measurement_parse_cache_total", `cache="doc"`, `result="hit"`)
	docMisses := delta("sheriff_measurement_parse_cache_total", `cache="doc"`, `result="miss"`)
	pageHits, pageMisses := delta("sheriff_engine_cache_hits_total"), delta("sheriff_engine_cache_misses_total")
	// The unlabelled partial-checks series is the total; the labelled ones
	// split it by cause and must not be added to it.
	const partialSeries = "sheriff_measurement_partial_checks_total"
	partials := exact(m.after.Counters, partialSeries) - exact(m.before.Counters, partialSeries)

	return []layerMetric{
		{"core.check_p99_ms", "ms", quantileSorted(sortedCopy(latencies), 0.99)},
		{"core.check_mean_ms", "ms", mean(latencies)},
		{"core.late_share", "ratio", late / float64(len(latencies))},
		{"core.cpu_ms_per_check", "ms", m.cpuMSPerCheck},
		{"core.view_p50_ms", "ms", m.viewP50MS},
		{"htmlx.cache_hit_ratio", "ratio", ratio(docHits, docHits+docMisses)},
		{"measurement.retries_per_check", "count", delta("sheriff_measurement_retries_total") / checks},
		{"measurement.partial_share", "ratio", partials / checks},
		{"measurement.batched_rows_per_check", "count", delta("sheriff_measurement_batched_rows_total") / checks},
		{"peer.pages_per_check", "count", delta("sheriff_peer_pages_served_total") / checks},
		{"transport.frames_per_check", "count", delta("sheriff_transport_frames_sent_total") / checks},
		{"transport.kb_per_check", "KiB", delta("sheriff_transport_bytes_sent_total") / 1024 / checks},
		{"shard.ops_per_check", "count", delta("sheriff_shard_ops_total") / checks},
		{"shard.misroutes", "count", delta("sheriff_shard_router_misroutes_total")},
		{"store.queries_per_check", "count", delta("sheriff_store_queries_total") / checks},
		{"store.rows_returned_per_view", "count", ratio(delta("sheriff_store_rows_returned_total"), views)},
		{"history.wal_records_per_check", "count", delta("sheriff_history_wal_records_total") / checks},
		{"history.wal_segments", "count", series(m.after.Gauges, "sheriff_history_wal_segments")},
		{"diskengine.flushes", "count", delta("sheriff_engine_flushes_total")},
		{"diskengine.compactions", "count", delta("sheriff_engine_compactions_total")},
		{"diskengine.cache_hit_ratio", "ratio", ratio(pageHits, pageHits+pageMisses)},
		{"diskengine.disk_kb_per_check", "KiB", gaugeDelta("sheriff_engine_disk_bytes") / 1024 / checks},
		{"admit.queued_share", "ratio", delta("sheriff_admit_queued") / checks},
		{"admit.shed_share", "ratio", delta("sheriff_admit_shed_total") / checks},
	}
}
