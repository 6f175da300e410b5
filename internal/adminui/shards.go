package adminui

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
)

// handleShards renders the sharded data plane: ring membership,
// key-space shares, per-shard routed ops and row counts, and whether a
// rebalance window is open.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.Shards == nil {
		http.NotFound(w, r)
		return
	}
	st, err := s.Shards.Status(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<!DOCTYPE html>\n<html><head><title>Store shards</title></head><body>\n")
	fmt.Fprintf(w, "<h1>Store shards</h1>\n<p>ring v%d — %d shards", st.RingVersion, len(st.Shards))
	if st.Rebalancing {
		fmt.Fprint(w, ` — <strong class="rebalancing">rebalancing</strong>`)
	}
	fmt.Fprint(w, "</p>\n")
	if lc := st.LastChange; lc != nil {
		fmt.Fprintf(w, "<p>last change v%d→v%d: %d keys (%d bytes) moved, %d strays reaped before, %d sources freed after</p>\n",
			lc.FromVersion, lc.ToVersion, lc.KeysMoved, lc.BytesMoved, lc.Reaped, lc.SourcesFreed)
	}
	fmt.Fprint(w, "<table border=\"1\" cellpadding=\"4\">\n<tr><th>shard</th><th>addr</th><th>share</th><th>ops</th><th>keys</th></tr>\n")
	for _, m := range st.Shards {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%.1f%%</td><td>%d</td><td>%s</td></tr>\n",
			htmlEscape(m.ID), htmlEscape(m.Addr), m.Share*100, m.Ops, htmlEscape(keysSummary(m.Keys)))
	}
	fmt.Fprint(w, "</table>\n</body></html>\n")
}

// handleShardsJSON serves the same status as JSON.
func (s *Server) handleShardsJSON(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.Shards == nil {
		http.Error(w, "this deployment has no sharded data plane", http.StatusNotFound)
		return
	}
	st, err := s.Shards.Status(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// keysSummary flattens per-table counts into "requests=12 responses=40".
func keysSummary(keys map[string]int) string {
	names := make([]string, 0, len(keys))
	for n := range keys {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", n, keys[n])
	}
	return out
}
