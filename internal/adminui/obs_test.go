package adminui

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"pricesheriff/internal/obs"
)

func newObsUI(t *testing.T) *Server {
	t.Helper()
	ui, _ := newUI(t)
	ui.Metrics = obs.NewRegistry()
	ui.Tracer = obs.NewTracer(8)
	return ui
}

// promLine matches one valid Prometheus text-format sample line.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$`)

func TestMetricsEndpointParsesAsPrometheus(t *testing.T) {
	ui := newObsUI(t)
	ui.Metrics.Counter("sheriff_test_total", "fabric", "tcp").Add(3)
	ui.Metrics.Gauge("sheriff_test_depth").Set(-1)
	ui.Metrics.Histogram("sheriff_test_seconds").Observe(0.02)

	code, body := get(t, ui.Handler(), "/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") || strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
	if !strings.Contains(body, `sheriff_test_total{fabric="tcp"} 3`) {
		t.Errorf("missing counter series:\n%s", body)
	}
	if !strings.Contains(body, `sheriff_test_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("missing histogram bucket:\n%s", body)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	ui.Handler().ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content-type = %q", ct)
	}
}

func TestMetricsJSONEndpoint(t *testing.T) {
	ui := newObsUI(t)
	ui.Metrics.Counter("sheriff_x_total").Inc()

	req := httptest.NewRequest(http.MethodGet, "/metrics.json", nil)
	rec := httptest.NewRecorder()
	ui.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("metrics.json = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
}

// TestTracesPanel: a fan-out's child spans, errored ones included, reach
// /traces.json as the span tree `sheriffctl trace` prints.
func TestTracesPanel(t *testing.T) {
	ui := newObsUI(t)
	if views := getTraces(t, ui, ""); len(views) != 0 {
		t.Errorf("empty tracer = %d traces", len(views))
	}

	tr, _ := ui.Tracer.Start("", "check http://shop/p/1")
	fan := tr.Span("fanout")
	c := fan.Child("ipc-1", "kind", "ipc")
	c.End()
	bad := fan.Child("peer-2", "kind", "ppc")
	bad.Annotate("error", "timed <out>")
	bad.End()
	fan.End()
	tr.Finish()

	views := getTraces(t, ui, "")
	if len(views) != 1 || views[0].Name != "check http://shop/p/1" || len(views[0].Spans) != 1 {
		t.Fatalf("traces = %+v", views)
	}
	fanView := views[0].Spans[0]
	if fanView.Name != "fanout" || len(fanView.Children) != 2 {
		t.Fatalf("fanout span = %+v", fanView)
	}
	if got := fanView.Children[1]; got.Name != "peer-2" || got.Attrs["error"] != "timed <out>" {
		t.Errorf("errored child = %+v", got)
	}
}

func TestObsEndpointsRejectPost(t *testing.T) {
	ui := newObsUI(t)
	for _, path := range []string{"/metrics", "/metrics.json", "/traces.json", "/logs.json", "/healthz", "/shards.json", "/tables.json"} {
		if code, _ := postForm(t, ui.Handler(), path, nil); code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, code)
		}
	}
}

func TestObsEndpointsNilSafe(t *testing.T) {
	ui, _ := newUI(t) // Metrics and Tracer left nil
	for _, path := range []string{"/metrics", "/metrics.json", "/traces.json"} {
		if code, _ := get(t, ui.Handler(), path); code != 200 {
			t.Errorf("GET %s with nil telemetry = %d", path, code)
		}
	}
}
