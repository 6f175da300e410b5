package core

import (
	"context"
	"strings"
	"testing"
)

// TestPriceCheckTelemetry is the acceptance test of the observability
// ISSUE: one completed price check must yield (a) a trace whose fan-out
// span has one child per vantage point, and (b) a registry populated with
// series spanning transport, coordinator, measurement and store.
func TestPriceCheckTelemetry(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 4)
	url := productURL(t, sys, "steampowered.com", 0)

	res, err := sys.PriceCheckContext(context.Background(), users[0].ID, url)
	if err != nil {
		t.Fatal(err)
	}
	vantages := len(res.Rows) - 1 // every row except the initiator's

	// --- The trace: submit/schedule/await from the submitter, joined by
	// the measurement server's extract/persist/fanout spans.
	views := sys.Tracer().Recent()
	if len(views) != 1 {
		t.Fatalf("recent traces = %d, want 1", len(views))
	}
	tv := views[0]
	if tv.Attrs["job"] != res.JobID {
		t.Errorf("trace job attr = %q, want %q", tv.Attrs["job"], res.JobID)
	}
	spans := map[string]int{}
	vantageChildren := 0
	childKinds := map[string]int{}
	for _, sp := range tv.Spans {
		spans[sp.Name]++
		if sp.Name == "fanout" {
			// Children are one vantage span per vantage point plus RPC
			// legs (e.g. the coord.job_ppcs lookup) opened under fanout.
			for _, c := range sp.Children {
				if kind := c.Attrs["kind"]; kind != "" {
					vantageChildren++
					childKinds[kind]++
				}
			}
		}
	}
	for _, want := range []string{"submit", "schedule", "await", "extract", "fanout"} {
		if spans[want] != 1 {
			t.Errorf("span %q appears %d times, want 1 (spans: %v)", want, spans[want], spans)
		}
	}
	// Persistence spans: one for the requests row, one for the batched
	// responses flush.
	if spans["persist"] != 2 {
		t.Errorf("span %q appears %d times, want 2 (spans: %v)", "persist", spans["persist"], spans)
	}
	if vantageChildren != vantages {
		t.Errorf("fanout vantage children = %d, want %d (one per vantage point)", vantageChildren, vantages)
	}
	if childKinds["ipc"] != 6 || childKinds["ppc"] != 3 {
		t.Errorf("child kinds = %v, want 6 ipc / 3 ppc", childKinds)
	}

	// --- The registry: >= 20 series spanning four components.
	snap := sys.Metrics().Snapshot()
	series := make([]string, 0, 64)
	for _, p := range snap.Counters {
		series = append(series, p.Series)
	}
	for _, p := range snap.Gauges {
		series = append(series, p.Series)
	}
	for _, h := range snap.Histograms {
		series = append(series, h.Series)
	}
	if len(series) < 20 {
		t.Errorf("registry has %d series, want >= 20: %v", len(series), series)
	}
	components := map[string]bool{}
	for _, s := range series {
		for _, comp := range []string{"transport", "coordinator", "measurement", "store", "peer", "core"} {
			if strings.HasPrefix(s, "sheriff_"+comp+"_") {
				components[comp] = true
			}
		}
	}
	for _, comp := range []string{"transport", "coordinator", "measurement", "store"} {
		if !components[comp] {
			t.Errorf("no %s series in registry: %v", comp, series)
		}
	}

	// Spot-check a few values a completed check must have moved.
	reg := sys.Metrics()
	if n := reg.Counter("sheriff_measurement_checks_completed_total").Value(); n != 1 {
		t.Errorf("checks completed = %d, want 1", n)
	}
	if n := reg.Counter("sheriff_core_checks_total").Value(); n != 1 {
		t.Errorf("core checks = %d, want 1", n)
	}
	if n := reg.Counter("sheriff_core_ms_dials_total").Value(); n != 1 {
		t.Errorf("measurement-server dials = %d, want 1 (the first check to a server dials it)", n)
	}
	if n := reg.Counter("sheriff_coordinator_jobs_scheduled_total").Value(); n != 1 {
		t.Errorf("jobs scheduled = %d, want 1", n)
	}
	if reg.Counter("sheriff_transport_frames_sent_total", "fabric", "inproc").Value() == 0 {
		t.Error("no transport frames counted")
	}
	if reg.Histogram("sheriff_measurement_check_seconds").Count() != 1 {
		t.Error("check latency not observed")
	}
	if reg.Counter("sheriff_store_queries_total", "method", "insert").Value() == 0 {
		t.Error("no store inserts counted")
	}
	// The degraded-path counter exists from boot, so a dashboard can alert
	// on its rate.
	found := false
	for _, p := range snap.Counters {
		if p.Series == `sheriff_transport_wire_fallback_total{fabric="inproc",reason="json_body"}` {
			found = true
		}
	}
	if !found {
		t.Errorf("no sheriff_transport_wire_fallback_total{reason=json_body} series in registry: %v", series)
	}
	// So do the verdict tiers' series: which tier answered, how large the
	// Coordinator's index is, and why an attach fell back.
	have := map[string]bool{}
	for _, s := range series {
		have[s] = true
	}
	for _, want := range []string{
		`sheriff_core_check_source_total{source="fanout"}`,
		`sheriff_core_check_source_total{source="coalesced"}`,
		`sheriff_core_check_source_total{source="cached"}`,
		`sheriff_core_attach_fallback_total{reason="gone"}`,
		`sheriff_core_attach_fallback_total{reason="partial"}`,
		`sheriff_core_attach_fallback_total{reason="canceled"}`,
		`sheriff_core_attach_fallback_total{reason="unreachable"}`,
		`sheriff_coordinator_verdict_index_entries`,
	} {
		if !have[want] {
			t.Errorf("no %s series in registry", want)
		}
	}
	if n := reg.Counter("sheriff_core_check_source_total", "source", "fanout").Value(); n != 1 {
		t.Errorf("check_source_total{source=fanout} = %d, want 1", n)
	}
	if n := reg.Gauge("sheriff_coordinator_verdict_index_entries").Value(); n != 1 {
		t.Errorf("verdict index entries = %d, want 1", n)
	}
	if reg.Gauge("sheriff_peer_relay_sessions").Value() == 0 {
		t.Error("relay session gauge is zero with connected peers")
	}

	// PII rejections feed their own counter.
	if _, err := sys.PriceCheckContext(context.Background(), users[0].ID, "http://steampowered.com/account/settings"); err == nil {
		t.Fatal("PII URL accepted")
	}
	if n := reg.Counter("sheriff_core_pii_blocked_total").Value(); n != 1 {
		t.Errorf("pii blocked = %d, want 1", n)
	}
}
