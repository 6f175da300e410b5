package adminui

import (
	"net/http"
	"strings"
	"time"

	"pricesheriff/internal/history"
	"pricesheriff/internal/store"
)

// The longitudinal documents: /history.json (price series), /watches.json
// (recurring checks and their verdicts) and /snapshot (the whole store,
// out and in).

// HistorySeries is one entry of the /history.json series list.
type HistorySeries struct {
	URL     string `json:"url"`
	Country string `json:"country"`
	Points  int    `json:"points"`
}

// HistoryPayload is the /history.json document: without ?url=&country=
// the series list, with them that one series' points.
type HistoryPayload struct {
	Series  []HistorySeries `json:"series,omitempty"`
	URL     string          `json:"url,omitempty"`
	Country string          `json:"country,omitempty"`
	Points  []history.Point `json:"points,omitempty"`
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.History == nil {
		http.Error(w, "history not enabled", http.StatusNotFound)
		return
	}
	url, country := r.URL.Query().Get("url"), r.URL.Query().Get("country")
	var p HistoryPayload
	if url == "" || country == "" {
		for _, k := range s.History.Series() {
			p.Series = append(p.Series, HistorySeries{URL: k.URL, Country: k.Country, Points: s.History.Len(k)})
		}
		writeJSON(w, p)
		return
	}
	p.URL, p.Country = url, country
	p.Points = s.History.Range(history.SeriesKey{URL: url, Country: country}, time.Time{}, time.Time{})
	writeJSON(w, p)
}

// WatchesPayload is the /watches.json document.
type WatchesPayload struct {
	Watches  []history.Watch   `json:"watches"`
	Verdicts []history.Verdict `json:"verdicts"`
}

func (s *Server) handleWatches(w http.ResponseWriter, r *http.Request) {
	if s.Watches == nil {
		http.Error(w, "watches not enabled", http.StatusNotFound)
		return
	}
	ws, err := s.Watches.List()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	vs, err := s.Watches.Verdicts(r.URL.Query().Get("url"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, WatchesPayload{Watches: ws, Verdicts: vs})
}

// handleWatchChange adds (action "add", the default) or removes (action
// "rm") the watch on the form's url.
func (s *Server) handleWatchChange(w http.ResponseWriter, r *http.Request) {
	if s.Watches == nil {
		http.Error(w, "watches not enabled", http.StatusNotFound)
		return
	}
	url := strings.TrimSpace(r.PostFormValue("url"))
	if url == "" {
		http.Error(w, "missing url", http.StatusBadRequest)
		return
	}
	var err error
	switch r.PostFormValue("action") {
	case "", "add":
		_, err = s.Watches.Add(url, strings.TrimSpace(r.PostFormValue("currency")))
	case "rm":
		err = s.Watches.Remove(url)
	default:
		http.Error(w, "unknown action", http.StatusBadRequest)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.handleWatches(w, r)
}

// handleExport streams the whole store as JSON — the paper's MySQL-dump
// workflow for moving a corpus into an analysis run.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if s.DB == nil {
		http.Error(w, "snapshot not enabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="sheriff-snapshot.json"`)
	// A failure mid-stream leaves a truncated body that fails to parse on
	// import — the headers are gone, so that is the honest failure mode.
	s.DB.Export(w)
}

// handleImport merges a snapshot into the store, repairs the
// responses→requests join, and refreshes the history index.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	if s.DB == nil {
		http.Error(w, "snapshot not enabled", http.StatusNotFound)
		return
	}
	idmap, err := s.DB.ImportMerge(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fixed := fixupResponseJoins(s.DB, idmap)
	// Imported history_points rows must show up on /history.json too.
	if s.History != nil {
		if err := s.History.Load(s.DB); err != nil {
			http.Error(w, "refresh history index: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	writeJSON(w, map[string]any{"ok": true, "tables": len(idmap), "joins_fixed": fixed})
}

// fixupResponseJoins repairs the responses→requests join after a merge
// import reassigned row IDs, using the import's old→new ID map.
func fixupResponseJoins(db *store.DB, idmap store.IDMap) int {
	reqMap := idmap["requests"]
	if len(reqMap) == 0 {
		return 0
	}
	fixed := 0
	for _, newID := range idmap["responses"] {
		row, err := db.Get("responses", newID)
		if err != nil {
			continue
		}
		oldReq, ok := row["request_id"].(float64)
		if !ok {
			continue
		}
		newReq, ok := reqMap[int64(oldReq)]
		if !ok {
			continue
		}
		if err := db.Update("responses", newID, store.Row{"request_id": float64(newReq)}); err == nil {
			fixed++
		}
	}
	return fixed
}
