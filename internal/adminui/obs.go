package adminui

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"pricesheriff/internal/obs"
)

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Metrics.WritePrometheus(w)
}

// handleMetricsJSON serves the registry as a JSON snapshot (the shape
// consumed by `sheriffctl stats`).
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Metrics.Snapshot())
}

// handleTraces serves the recent traces, filterable with ?id=<trace id>,
// ?min_ms=<duration floor> and ?err=1 (errored/abandoned traces only) —
// the shape consumed by `sheriffctl trace`.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			http.Error(w, fmt.Sprintf("bad min_ms %q", v), http.StatusBadRequest)
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	errOnly := q.Get("err") == "1" || q.Get("err") == "true"
	id := q.Get("id")
	views := []obs.TraceView{}
	for _, tv := range s.Tracer.Recent() {
		if (id == "" || tv.ID == id) && tv.Duration >= minDur && (!errOnly || tv.HasError()) {
			views = append(views, tv)
		}
	}
	writeJSON(w, views)
}

// handleLogs serves the log ring, newest first — the shape consumed by
// `sheriffctl logs`. Filters: ?level= (minimum level, default info),
// ?trace= (exact trace ID) and ?limit= (record cap, default 200).
func (s *Server) handleLogs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	lvl, err := obs.ParseLevel(q.Get("level"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	limit := 200
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			http.Error(w, fmt.Sprintf("bad limit %q", v), http.StatusBadRequest)
			return
		}
	}
	recs := s.Logs.Records(lvl, q.Get("trace"), limit)
	if recs == nil {
		recs = []obs.LogRecord{}
	}
	writeJSON(w, recs)
}

// EnableDebug mounts net/http/pprof and expvar on the admin mux — the
// sheriffd -debug surface. Call it before Listen.
func (s *Server) EnableDebug() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.Handle("/debug/vars", expvar.Handler())
}
