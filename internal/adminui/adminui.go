// Package adminui is the operator's HTTP API over a deployment (paper
// Sect. 10.2.1: the administrator attaches/detaches Measurement servers
// and watches the real-time panels of Figs. 7 and 16, and reviews the
// whitelist as in Sect. 2.3). Every view is a JSON document; `sheriffctl`
// renders them for humans and /metrics feeds Prometheus. Nothing here
// writes HTML.
//
//	GET  /servers.json   Fig. 7 — measurement servers and their jobs
//	POST /servers.json   register a measurement server (form field "addr")
//	GET  /peers.json     Fig. 16 — online peer proxies
//	GET  /whitelist.json sanctioned domain count + rejected-domain queue
//	POST /whitelist.json sanction a domain (form field "domain")
//	GET  /metrics        telemetry in Prometheus text exposition format
//	GET  /metrics.json   telemetry as a JSON snapshot
//	GET  /traces.json    recent price-check traces;
//	                     filters: ?min_ms=500 &err=1 &id=<trace id>
//	GET  /logs.json      recent structured log records, newest first;
//	                     filters: ?level=warn &trace=<trace id> &limit=100
//	GET  /history.json   series keys, or with ?url=&country= one series
//	GET  /watches.json   watches + verdicts (?url= narrows the verdicts)
//	POST /watches.json   add or remove a watch (form: action=add|rm, url,
//	                     currency)
//	GET  /snapshot       stream the whole DB as JSON
//	POST /snapshot       import a snapshot (merge; joins fixed up)
//	GET  /cluster.json   this replica's view of the replicated control plane
//	GET  /shards.json    sharded store data plane: ring, shares, load
//	GET  /tables.json    per-table storage engines, rows, disk bytes, cache
//	GET  /healthz        liveness probe
//
// A mutation answers with its document as it stands after the change. An
// unknown path answers 404 and a known path asked with another method 405.
package adminui

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"

	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/ha"
	"pricesheriff/internal/history"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/store"
)

// Server is the admin HTTP server.
type Server struct {
	Coord *coordinator.Coordinator
	// Metrics backs /metrics and /metrics.json; set it after New (nil:
	// the endpoints serve an empty snapshot).
	Metrics *obs.Registry
	// Tracer backs /traces.json; set it after New (nil: no traces).
	Tracer *obs.Tracer
	// Logs backs /logs.json; set it after New (nil: no records). Point it
	// at the Logger's Ring().
	Logs *obs.LogRing
	// DB backs /snapshot (export/import); set it after New (nil: 404).
	DB *store.DB
	// History backs /history.json (nil: 404).
	History *history.Index
	// Watches backs /watches.json (nil: 404).
	Watches *history.Scheduler
	// HA backs /cluster.json with this replica's view of the replicated
	// control plane (nil: 404, a single-coordinator deployment).
	HA *ha.Node
	// Shards backs /shards.json with the sharded store data plane's ring
	// and per-shard load (nil: 404). A bare *shard.Router shows that one
	// router's ops; the deployment wires the fleet-merged core view so the
	// document counts every router's traffic.
	Shards ShardPlane
	// Tables backs /tables.json with per-table storage-engine placement,
	// row counts, disk footprint, and the page-cache hit ratio (nil: 404).
	Tables TablePlane

	mux  *http.ServeMux
	http *http.Server
	lis  net.Listener
	once sync.Once
}

// New builds the admin UI over a coordinator.
func New(coord *coordinator.Coordinator) *Server {
	s := &Server{Coord: coord, mux: http.NewServeMux()}
	for pattern, h := range map[string]http.HandlerFunc{
		"GET /servers.json":    s.handleServers,
		"POST /servers.json":   s.handleRegisterServer,
		"GET /peers.json":      s.handlePeers,
		"GET /whitelist.json":  s.handleWhitelist,
		"POST /whitelist.json": s.handleSanction,
		"GET /metrics":         s.handleMetrics,
		"GET /metrics.json":    s.handleMetricsJSON,
		"GET /traces.json":     s.handleTraces,
		"GET /logs.json":       s.handleLogs,
		"GET /history.json":    s.handleHistory,
		"GET /watches.json":    s.handleWatches,
		"POST /watches.json":   s.handleWatchChange,
		"GET /snapshot":        s.handleExport,
		"POST /snapshot":       s.handleImport,
		"GET /cluster.json":    s.handleCluster,
		"GET /shards.json":     s.handleShards,
		"GET /tables.json":     s.handleTables,
		"GET /healthz":         handleHealth,
	} {
		s.mux.HandleFunc(pattern, h)
	}
	return s
}

// Handler exposes the mux (for tests via httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds the UI to a TCP address ("127.0.0.1:0" for ephemeral) and
// starts serving in the background.
func (s *Server) Listen(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.lis = lis
	s.http = &http.Server{Handler: s.mux}
	go s.http.Serve(lis)
	return nil
}

// Addr returns the bound address ("" before Listen).
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Close stops the server.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() {
		if s.http != nil {
			err = s.http.Close()
		}
	})
	return err
}

// writeJSON answers with one JSON document. An encode error can only be
// the client going away mid-answer; there is no one left to tell.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleServers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Coord.Servers.Snapshot())
}

func (s *Server) handleRegisterServer(w http.ResponseWriter, r *http.Request) {
	addr := strings.TrimSpace(r.FormValue("addr"))
	if addr == "" {
		http.Error(w, "missing addr", http.StatusBadRequest)
		return
	}
	s.Coord.Servers.Register(addr)
	s.handleServers(w, r)
}

func (s *Server) handlePeers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Coord.Peers())
}

// WhitelistPayload is the /whitelist.json document: how many domains are
// sanctioned, and the domains checks were refused for, awaiting review.
type WhitelistPayload struct {
	Sanctioned int      `json:"sanctioned"`
	Rejected   []string `json:"rejected"`
}

func (s *Server) handleWhitelist(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, WhitelistPayload{Sanctioned: s.Coord.Whitelist.Size(), Rejected: s.Coord.Whitelist.Rejected()})
}

func (s *Server) handleSanction(w http.ResponseWriter, r *http.Request) {
	domain := strings.TrimSpace(r.FormValue("domain"))
	if domain == "" {
		http.Error(w, "missing domain", http.StatusBadRequest)
		return
	}
	s.Coord.Whitelist.Add(domain)
	s.handleWhitelist(w, r)
}
