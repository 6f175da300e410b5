package adminui

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"pricesheriff/internal/history"
	"pricesheriff/internal/store"
)

// newHistoryUI wires a UI over an in-process DB, index and scheduler —
// the same shape sheriffd builds, minus the pipeline.
func newHistoryUI(t *testing.T) (*Server, *store.DB) {
	t.Helper()
	ui, _ := newUI(t)
	db := store.NewDB()
	sched, err := history.NewScheduler(db, func(url, currency string) (*history.RunResult, error) {
		return &history.RunResult{PricesByCountry: map[string]float64{"US": 10, "DE": 12}}, nil
	}, history.SchedulerOptions{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ui.DB = db
	ui.History = history.NewIndex(nil)
	ui.Watches = sched
	return ui, db
}

func TestHistoryPanelAndJSON(t *testing.T) {
	ui, _ := newHistoryUI(t)
	key := history.SeriesKey{URL: "http://shop-0001.com/product/a", Country: "US"}
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		ui.History.Append(key, history.Point{T: base.Add(time.Duration(i) * time.Hour), Price: 100 + float64(i)})
	}

	code, body := get(t, ui.Handler(), "/history.json")
	var list HistoryPayload
	decode(t, body, &list)
	if code != http.StatusOK || len(list.Series) != 1 || list.Series[0].URL != key.URL || list.Series[0].Points != 5 {
		t.Fatalf("series list: code %d %+v", code, list)
	}

	code, body = get(t, ui.Handler(), "/history.json?url="+url.QueryEscape(key.URL)+"&country=US")
	if code != http.StatusOK {
		t.Fatalf("/history.json code %d", code)
	}
	var got HistoryPayload
	decode(t, body, &got)
	if got.URL != key.URL || got.Country != "US" || len(got.Points) != 5 || got.Points[4].Price != 104 {
		t.Fatalf("series = %+v", got)
	}
}

func TestWatchesEndpointLifecycle(t *testing.T) {
	ui, _ := newHistoryUI(t)
	code, body := postForm(t, ui.Handler(), "/watches.json", url.Values{
		"action": {"add"}, "url": {"http://shop-0001.com/product/a"}, "currency": {"USD"},
	})
	var doc WatchesPayload
	decode(t, body, &doc)
	if code != http.StatusOK || len(doc.Watches) != 1 || doc.Watches[0].Currency != "USD" {
		t.Fatalf("add: %d %+v", code, doc)
	}
	code, body = get(t, ui.Handler(), "/watches.json")
	if code != http.StatusOK || !strings.Contains(body, `"url":"http://shop-0001.com/product/a"`) {
		t.Fatalf("watches.json: %d %q", code, body)
	}
	if code, _ := postForm(t, ui.Handler(), "/watches.json", url.Values{
		"action": {"pause"}, "url": {"http://shop-0001.com/product/a"},
	}); code != http.StatusBadRequest {
		t.Fatalf("unknown action = %d, want 400", code)
	}
	code, _ = postForm(t, ui.Handler(), "/watches.json", url.Values{
		"action": {"rm"}, "url": {"http://shop-0001.com/product/a"},
	})
	if code != http.StatusOK {
		t.Fatalf("rm code %d", code)
	}
	_, body = get(t, ui.Handler(), "/watches.json")
	if strings.Contains(body, "shop-0001.com") {
		t.Fatalf("watch still listed after rm: %q", body)
	}
}

func TestSnapshotExportImportRoundtrip(t *testing.T) {
	ui, db := newHistoryUI(t)
	if err := db.CreateTable(store.TableSpec{Name: "requests", Unique: []string{"job_id"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(store.TableSpec{Name: "responses", Index: []string{"request_id"}}); err != nil {
		t.Fatal(err)
	}
	reqID, err := db.Insert("requests", store.Row{"job_id": "j-1", "domain": "a.com"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("responses", store.Row{"job_id": "j-1", "request_id": float64(reqID), "country": "US"}); err != nil {
		t.Fatal(err)
	}
	// history_points already exists: NewScheduler ensures the watch tables.
	hkey := history.SeriesKey{URL: "http://a.com/product/x", Country: "US"}
	hpt := history.Point{T: time.Date(2026, 7, 2, 0, 0, 0, 0, time.UTC), Price: 55}
	if _, err := db.Insert(history.PointsTable.Name, history.PointRow(hkey, hpt)); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, ui.Handler(), "/snapshot")
	if code != http.StatusOK || !strings.Contains(body, `"job_id":"j-1"`) {
		t.Fatalf("export: code %d", code)
	}

	// Import into a second UI whose DB already has rows, so IDs shift and
	// the request_id join must be remapped.
	ui2, db2 := newHistoryUI(t)
	if err := db2.CreateTable(store.TableSpec{Name: "requests", Unique: []string{"job_id"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ { // burn IDs
		if _, err := db2.Insert("requests", store.Row{"job_id": "pre-" + string(rune('a'+i))}); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/snapshot", bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	ui2.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("import: code %d body %s", rec.Code, rec.Body.String())
	}

	// The imported response row must point at the imported request's NEW id.
	reqs, err := db2.Select(store.Query{Table: "requests", Eq: map[string]any{"job_id": "j-1"}})
	if err != nil || len(reqs) != 1 {
		t.Fatalf("imported request: %v %v", reqs, err)
	}
	newReqID := reqs[0][store.ID].(float64)
	resps, err := db2.Select(store.Query{Table: "responses", Eq: map[string]any{"job_id": "j-1"}})
	if err != nil || len(resps) != 1 {
		t.Fatalf("imported response: %v %v", resps, err)
	}
	if got := resps[0]["request_id"].(float64); got != newReqID {
		t.Fatalf("join not fixed up: request_id %v, want %v", got, newReqID)
	}

	// The import must refresh the receiving deployment's history index —
	// the imported series is served without a restart.
	if got := ui2.History.Range(hkey, time.Time{}, time.Time{}); len(got) != 1 || got[0].Price != 55 {
		t.Fatalf("history index not refreshed after import: %+v", got)
	}
}

func TestHistoryEndpointsDisabledWithoutWiring(t *testing.T) {
	ui, _ := newUI(t)
	for _, path := range []string{"/history.json", "/watches.json", "/snapshot"} {
		if code, _ := get(t, ui.Handler(), path); code != http.StatusNotFound {
			t.Errorf("%s without wiring: code %d, want 404", path, code)
		}
		if code, _ := postForm(t, ui.Handler(), path, url.Values{"url": {"http://a.com/product/x"}}); code != http.StatusNotFound && code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s without wiring: code %d, want 404 or 405", path, code)
		}
	}
}
