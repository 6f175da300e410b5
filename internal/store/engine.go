package store

import "sort"

// Engine kinds a TableSpec (or the DB's table policy) can name.
const (
	EngineMem  = "mem"
	EngineDisk = "disk"
)

// EngineStats is one engine's self-report for the /tables surface.
type EngineStats struct {
	// Kind is the engine family ("mem" or "disk").
	Kind string `json:"kind"`
	// Rows is the live row count.
	Rows int64 `json:"rows"`
	// DiskBytes is the engine's resident on-disk footprint (0 for mem).
	DiskBytes int64 `json:"disk_bytes,omitempty"`
	// MemBytes estimates the unflushed write-buffer footprint (0 for mem:
	// the whole table is RAM, which Rows already conveys).
	MemBytes int64 `json:"mem_bytes,omitempty"`
	// Runs is the on-disk sorted-run count (LSM depth; 0 for mem).
	Runs int `json:"runs,omitempty"`
}

// Engine is per-table row storage keyed by the auto-increment ID column —
// the seam between the relational layer (specs, secondary/unique indexes,
// queries, commit hooks, all of which stay in DB) and where the bytes of
// a row actually live. The in-memory maps the store grew up with are
// memEngine; internal/store/diskengine adds a disk-resident LSM behind
// the same contract, selected per table.
//
// The DB serializes all mutations under its write lock and issues reads
// under its read lock, so implementations only need to tolerate
// concurrent readers (plus an asynchronous Flush racing readers and
// writers). Rows handed to Put are owned by the engine; rows returned by
// Get/Scan may be the engine's internal state and must be copied by the
// DB before mutation or hand-out to callers.
//
// Durability is layered, not per-engine: every committed op is framed
// into the WAL (internal/history) before the write is acknowledged, so
// an engine may buffer writes in RAM as long as Flush makes everything
// applied so far durable — the checkpoint cycle calls Flush before it
// retires WAL segments.
type Engine interface {
	// Put stores row under id, replacing any existing row, and reports
	// whether a row was replaced.
	Put(id int64, row Row) (replaced bool, err error)
	// Get fetches the row under id.
	Get(id int64) (Row, bool, error)
	// Delete removes the row under id, reporting whether it existed.
	Delete(id int64) (bool, error)
	// Scan streams rows in ascending ID order over from <= id <= to,
	// stopping early when fn returns false.
	Scan(from, to int64, fn func(id int64, row Row) bool) error
	// Count returns the live row count.
	Count() int64
	// MaxID returns the highest ID ever stored under this table (0 when
	// none), whether this engine minted it or it arrived with a row from
	// another shard, and whether or not that row is still here. A
	// reopened table mints above it, so deleting or moving a row away
	// never frees its ID: a persistent engine must keep the value with its
	// files; a RAM engine gets it back from WAL replay and the
	// checkpoint's max_id.
	MaxID() int64
	// Flush makes every applied mutation durable (no-op for RAM engines).
	Flush() error
	// Stats self-reports for the operator surface.
	Stats() EngineStats
	// Close releases resources; the engine is unusable afterwards.
	Close() error
}

// memEngine is the store's original storage: a row map plus the ID-sorted
// live-row order, now behind the Engine seam.
type memEngine struct {
	rows  map[int64]Row
	order []int64 // live row IDs, ascending
	maxID int64
}

func newMemEngine() *memEngine {
	return &memEngine{rows: make(map[int64]Row)}
}

// Put implements Engine.
func (e *memEngine) Put(id int64, row Row) (bool, error) {
	_, existed := e.rows[id]
	e.rows[id] = row
	if !existed {
		if n := len(e.order); n == 0 || id > e.order[n-1] {
			e.order = append(e.order, id) // hot path: ascending inserts
		} else {
			at := sort.Search(n, func(i int) bool { return e.order[i] >= id })
			e.order = append(e.order, 0)
			copy(e.order[at+1:], e.order[at:])
			e.order[at] = id
		}
	}
	if id > e.maxID {
		e.maxID = id
	}
	return existed, nil
}

// Get implements Engine.
func (e *memEngine) Get(id int64) (Row, bool, error) {
	r, ok := e.rows[id]
	return r, ok, nil
}

// Delete implements Engine.
func (e *memEngine) Delete(id int64) (bool, error) {
	if _, ok := e.rows[id]; !ok {
		return false, nil
	}
	delete(e.rows, id)
	at := sort.Search(len(e.order), func(i int) bool { return e.order[i] >= id })
	if at < len(e.order) && e.order[at] == id {
		e.order = append(e.order[:at], e.order[at+1:]...)
	}
	return true, nil
}

// Scan implements Engine.
func (e *memEngine) Scan(from, to int64, fn func(id int64, row Row) bool) error {
	start := sort.Search(len(e.order), func(i int) bool { return e.order[i] >= from })
	for _, id := range e.order[start:] {
		if id > to {
			return nil
		}
		if !fn(id, e.rows[id]) {
			return nil
		}
	}
	return nil
}

// Count implements Engine.
func (e *memEngine) Count() int64 { return int64(len(e.rows)) }

// MaxID implements Engine.
func (e *memEngine) MaxID() int64 { return e.maxID }

// Flush implements Engine: RAM state has nothing to make durable — the
// WAL above already holds every committed op.
func (e *memEngine) Flush() error { return nil }

// Stats implements Engine.
func (e *memEngine) Stats() EngineStats {
	return EngineStats{Kind: EngineMem, Rows: int64(len(e.rows))}
}

// Close implements Engine.
func (e *memEngine) Close() error { return nil }
