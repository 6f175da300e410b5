package adminui

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pricesheriff/internal/obs"
)

// seedTraces completes two traces on the UI's tracer: a fast clean one
// and a slow errored one. It returns their IDs (fast, slow).
func seedTraces(t *testing.T, ui *Server) (string, string) {
	t.Helper()
	fast, _ := ui.Tracer.Start("", "fast check")
	sp := fast.Span("submit")
	sp.End()
	fast.Finish()

	slow, _ := ui.Tracer.Start("", "slow check")
	bad := slow.Span("fanout")
	bad.Annotate("error", "proxy timeout")
	time.Sleep(30 * time.Millisecond)
	bad.End()
	slow.Finish()
	return fast.ID(), slow.ID()
}

func getTraces(t *testing.T, ui *Server, query string) []obs.TraceView {
	t.Helper()
	code, body := get(t, ui.Handler(), "/traces.json"+query)
	if code != 200 {
		t.Fatalf("GET /traces.json%s = %d", query, code)
	}
	var views []obs.TraceView
	if err := json.Unmarshal([]byte(body), &views); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return views
}

func TestTracesJSONFilters(t *testing.T) {
	ui := newObsUI(t)
	fastID, slowID := seedTraces(t, ui)

	if views := getTraces(t, ui, ""); len(views) != 2 {
		t.Fatalf("unfiltered = %d traces, want 2", len(views))
	}
	views := getTraces(t, ui, "?err=1")
	if len(views) != 1 || views[0].ID != slowID {
		t.Errorf("err=1 = %+v, want just %s", views, slowID)
	}
	views = getTraces(t, ui, "?min_ms=25")
	if len(views) != 1 || views[0].ID != slowID {
		t.Errorf("min_ms=25 = %+v, want just %s", views, slowID)
	}
	views = getTraces(t, ui, "?id="+fastID)
	if len(views) != 1 || views[0].ID != fastID {
		t.Errorf("id filter = %+v, want just %s", views, fastID)
	}
	if views := getTraces(t, ui, "?min_ms=25&err=1&id="+fastID); len(views) != 0 {
		t.Errorf("conjunctive filters = %d traces, want 0", len(views))
	}

	if code, _ := get(t, ui.Handler(), "/traces.json?min_ms=potato"); code != 400 {
		t.Errorf("bad min_ms = %d, want 400", code)
	}
}

func TestLogsEndpoints(t *testing.T) {
	ui := newObsUI(t)
	lg := obs.NewLogger(nil, slog.LevelDebug, 32)
	ui.Logs = lg.Ring()

	tr, _ := ui.Tracer.Start("", "check")
	ctx := obs.WithTrace(context.Background(), tr)
	lg.Info(ctx, "check started", "job", "job-1")
	lg.Warn(context.Background(), "relay target offline", "to", "peer-9")
	tr.Finish()

	code, body := get(t, ui.Handler(), "/logs.json?level=debug")
	if code != 200 {
		t.Fatalf("logs.json = %d", code)
	}
	var recs []obs.LogRecord
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}

	// Level floor.
	code, body = get(t, ui.Handler(), "/logs.json?level=warn")
	if code != 200 || strings.Contains(body, "check started") {
		t.Errorf("warn filter leaked info records: %d %s", code, body)
	}
	// Trace filter keeps only records stamped with the trace.
	code, body = get(t, ui.Handler(), "/logs.json?trace="+tr.ID())
	if code != 200 || !strings.Contains(body, "job-1") || strings.Contains(body, "peer-9") {
		t.Errorf("trace filter wrong: %d %s", code, body)
	}
	// Bad level is a client error.
	if code, _ := get(t, ui.Handler(), "/logs.json?level=loud"); code != 400 {
		t.Errorf("bad level = %d, want 400", code)
	}

}

func TestLogsNilSafe(t *testing.T) {
	ui, _ := newUI(t) // Logs left nil
	req := httptest.NewRequest("GET", "/logs.json", nil)
	rec := httptest.NewRecorder()
	ui.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Errorf("GET /logs.json with nil ring = %d %q", rec.Code, rec.Body.String())
	}
}
