package adminui

import (
	"context"
	"net/http"

	"pricesheriff/internal/shard"
	"pricesheriff/internal/store"
)

// The data- and control-plane documents: /cluster.json (this replica's
// view of the replicated coordinator), /shards.json (the sharded store's
// ring) and /tables.json (per-table storage). A deployment without the
// plane answers 404.

// ShardPlane is the data-plane surface behind /shards.json: anything that
// snapshots ring membership, shares, per-shard ops and row counts.
type ShardPlane interface {
	Status(ctx context.Context) (*shard.Status, error)
}

// ShardPlaneFunc adapts a status function to ShardPlane, the way
// http.HandlerFunc adapts handlers.
type ShardPlaneFunc func(ctx context.Context) (*shard.Status, error)

// Status implements ShardPlane.
func (f ShardPlaneFunc) Status(ctx context.Context) (*shard.Status, error) { return f(ctx) }

// TablePlane is the storage surface behind /tables.json: every local
// shard's per-table engine placement and footprint, plus the disk engine's
// shared block-cache counters. *core.System implements it.
type TablePlane interface {
	TablesStatus() []store.TableStatus
	EngineCacheStats() (hits, misses int64)
}

// TablesPayload is the /tables.json document.
type TablesPayload struct {
	Tables        []store.TableStatus `json:"tables"`
	CacheHits     int64               `json:"cache_hits"`
	CacheMisses   int64               `json:"cache_misses"`
	CacheHitRatio float64             `json:"cache_hit_ratio"`
}

// handleCluster serves this replica's role, term, log positions,
// per-standby replication lag on the primary, and the cause of the last
// failover.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.HA == nil {
		http.Error(w, "not a replicated deployment", http.StatusNotFound)
		return
	}
	writeJSON(w, s.HA.StatusSnapshot())
}

// handleShards serves ring membership, key-space shares, per-shard routed
// ops and row counts, and whether a rebalance window is open.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if s.Shards == nil {
		http.Error(w, "this deployment has no sharded data plane", http.StatusNotFound)
		return
	}
	st, err := s.Shards.Status(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, st)
}

// handleTables serves which engine holds each table's rows on each shard,
// row counts, on-disk footprint, and the page-cache hit ratio.
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	if s.Tables == nil {
		http.NotFound(w, r)
		return
	}
	p := &TablesPayload{Tables: s.Tables.TablesStatus()}
	p.CacheHits, p.CacheMisses = s.Tables.EngineCacheStats()
	if total := p.CacheHits + p.CacheMisses; total > 0 {
		p.CacheHitRatio = float64(p.CacheHits) / float64(total)
	}
	writeJSON(w, p)
}
