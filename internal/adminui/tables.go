package adminui

import (
	"encoding/json"
	"fmt"
	"net/http"

	"pricesheriff/internal/store"
)

// TableStatus is one table's storage report on one shard.
type TableStatus struct {
	Shard string `json:"shard"`
	store.TableStat
}

// TablePlane is the storage surface behind /tables: every local shard's
// per-table engine placement and footprint, plus the disk engine's
// shared block-cache counters.
type TablePlane interface {
	TablesStatus() []TableStatus
	EngineCacheStats() (hits, misses int64)
}

// TablesPayload is the /tables.json document.
type TablesPayload struct {
	Tables        []TableStatus `json:"tables"`
	CacheHits     int64         `json:"cache_hits"`
	CacheMisses   int64         `json:"cache_misses"`
	CacheHitRatio float64       `json:"cache_hit_ratio"`
}

func (s *Server) tablesStatus() *TablesPayload {
	p := &TablesPayload{Tables: s.Tables.TablesStatus()}
	p.CacheHits, p.CacheMisses = s.Tables.EngineCacheStats()
	if total := p.CacheHits + p.CacheMisses; total > 0 {
		p.CacheHitRatio = float64(p.CacheHits) / float64(total)
	}
	return p
}

// handleTables renders per-table storage: which engine holds each
// table's rows on each shard, row counts, on-disk footprint, and the
// page-cache hit ratio.
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.Tables == nil {
		http.NotFound(w, r)
		return
	}
	p := s.tablesStatus()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<!DOCTYPE html>\n<html><head><title>Tables</title></head><body>\n")
	fmt.Fprint(w, "<h1>Tables</h1>\n")
	fmt.Fprintf(w, "<p>page cache: %d hits / %d misses (%.1f%% hit ratio)</p>\n",
		p.CacheHits, p.CacheMisses, p.CacheHitRatio*100)
	fmt.Fprint(w, "<table border=\"1\" cellpadding=\"4\">\n<tr><th>shard</th><th>table</th><th>engine</th><th>rows</th><th>disk bytes</th><th>memtable bytes</th><th>runs</th></tr>\n")
	for _, t := range p.Tables {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr>\n",
			htmlEscape(t.Shard), htmlEscape(t.Name), htmlEscape(t.Engine), t.Rows, t.DiskBytes, t.MemBytes, t.Runs)
	}
	fmt.Fprint(w, "</table>\n</body></html>\n")
}

// handleTablesJSON serves the same report as JSON.
func (s *Server) handleTablesJSON(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.Tables == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.tablesStatus())
}
