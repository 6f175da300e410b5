// Package store is the Price $heriff's database substrate. The deployed
// system used MySQL on a dedicated Database server shared by all
// Measurement servers, after an earlier embedded-per-server design caused
// consistency problems (paper Sect. 3.1.1). This package supplies the same
// architectural options: an embeddable relational engine (DB) with
// pluggable per-table row storage (RAM maps or the disk-resident LSM in
// internal/store/diskengine) and a network server exposing it to many
// measurement servers over the transport fabric, with stored procedures
// and client connection pooling — the two optimizations the paper calls
// out in Sect. 10.2.1.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Row is one record. Values survive a JSON round trip, so numbers are
// float64 and composite values are []any and map[string]any.
type Row map[string]any

// ID is the implicit auto-increment primary key column present in every
// table.
const ID = "_id"

// Errors returned by the engine. Each carries a wire code
// (transport.RPCCoder), so errors.Is matches it on the far side of a
// store RPC — and through the shard router — as it does in process.
var (
	ErrNoTable     error = &codedError{"store: no such table", "store_no_table"}
	ErrTableExists error = &codedError{"store: table already exists", "store_table_exists"}
	ErrNoRow       error = &codedError{"store: no such row", "store_no_row"}
	ErrDupUnique   error = &codedError{"store: unique index violation", "store_dup_unique"}
	ErrNoProc            = errors.New("store: no such stored procedure")
	ErrBadQuery          = errors.New("store: bad query")
	// ErrIDExhausted reports that a table's ID sequence ran out (see
	// NewPlaneDB for the budget). IDs never wrap.
	ErrIDExhausted = errors.New("store: row ID sequence exhausted")
)

type codedError struct{ msg, code string }

func (e *codedError) Error() string   { return e.msg }
func (e *codedError) RPCCode() string { return e.code }

// TableSpec declares a table: its name, optional secondary indexes and
// optional unique indexes (all single-column), and optionally which
// storage engine holds its rows. An empty Engine defers to the DB's
// table policy (Options.DiskTables / Options.DefaultEngine); a named
// engine wins over policy but still degrades to "mem" on a DB with no
// disk factory configured — a snapshot spilled table imported into a
// RAM-only shard simply lands in memory.
type TableSpec struct {
	Name   string   `json:"name"`
	Index  []string `json:"index,omitempty"`
	Unique []string `json:"unique,omitempty"`
	Engine string   `json:"engine,omitempty"`
}

// Range restricts a numeric column to [Min, Max]; nil bounds are open.
type Range struct {
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
}

// Query selects rows by exact match on columns, with optional numeric
// range filters and ordering. Zero Eq matches the whole table. Results
// are in insertion order unless OrderBy is set. Limit 0 means unbounded.
type Query struct {
	Table string           `json:"table"`
	Eq    map[string]any   `json:"eq,omitempty"`
	Num   map[string]Range `json:"num,omitempty"`
	// OrderBy sorts results by a column (numeric or string); Desc flips.
	OrderBy string `json:"order_by,omitempty"`
	Desc    bool   `json:"desc,omitempty"`
	Limit   int    `json:"limit,omitempty"`
}

// Proc is a stored procedure: server-side logic with direct engine access,
// saving round trips for hot paths (the paper's query optimization).
type Proc func(db *DB, args json.RawMessage) (any, error)

// Op kinds reported to the commit hook.
const (
	OpCreate = "create"
	OpInsert = "insert"
	OpUpdate = "update"
	OpDelete = "delete"
)

// Op describes one committed mutation, in commit order. Insert ops carry
// the full normalized row including the assigned ID column; update ops
// carry only the normalized updates.
type Op struct {
	Kind  string     `json:"k"`
	Table string     `json:"t,omitempty"`
	ID    int64      `json:"id,omitempty"`
	Row   Row        `json:"r,omitempty"`
	Spec  *TableSpec `json:"s,omitempty"`
}

// CommitHook observes committed mutations: the ops of one mutation call,
// in commit order — one op for Insert/Update/Delete/CreateTable/
// InsertWithID, one per applied row for InsertBatch, ImportRows and
// DeleteBatch. It is invoked synchronously under the engine's write lock
// after the call's mutations are applied, so invocations are totally
// ordered, and the call returns the hook's error: a crash after the hook
// returns nil can never have acknowledged an unlogged write — the
// contract the WAL in internal/history builds on. A call whose hook fails
// has changed the engine but is not acknowledged, and the DB latches the
// error: every later mutation returns it before applying anything, so no
// write lands behind a hole in the log. Keep it fast: the whole engine
// stalls while it runs.
//
// The slice and an insert op's Row are lent for the call — the Row is the
// stored row itself, not a copy: the hook may read them until it returns
// and must neither keep a reference (to the slice, an Op or a Row) past
// that nor change them. A hook that needs an op later serializes or
// copies it before returning, as the WAL does.
type CommitHook func(ops []Op) error

type table struct {
	spec    TableSpec
	eng     Engine
	nextID  int64
	indexes map[string]map[string][]int64 // column -> canonical value -> ids
	unique  map[string]map[string]int64   // column -> canonical value -> id
}

// Options configure a DB beyond the zero-value in-memory default.
type Options struct {
	// DiskTables names tables whose rows spill to the disk-resident
	// engine (when a DiskFactory is configured) even though their spec
	// doesn't say so — the per-deployment policy knob core threads from
	// -store-engine.
	DiskTables []string
	// DefaultEngine is the engine of tables neither the spec nor
	// DiskTables place ("" = EngineMem).
	DefaultEngine string
	// DiskFactory opens the disk-resident engine for a table — wire it
	// from internal/store/diskengine (which cannot be imported here
	// without a cycle). Nil forces every table onto the in-memory
	// engine regardless of spec or policy.
	DiskFactory func(table string) (Engine, error)
}

// DB is the relational engine. All methods are safe for concurrent use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
	procs  map[string]Proc
	hook   CommitHook
	ops    []Op  // the current call's ops, built only while a hook is set
	failed error // the first error a hook returned; refuses every later mutation
	opts   Options
	disk   map[string]bool // Options.DiskTables, as a set
	// IDs this engine mints are seq*stride + ordinal, seq = 1, 2, 3, …: a
	// standalone DB is (stride 1, ordinal 0) and mints 1, 2, 3; the
	// engines of one plane share planeStride and differ in ordinal, so
	// no two of them ever mint the same ID (see NewPlaneDB).
	stride, ordinal int64
}

// A plane engine's IDs keep the ordinal in the low ordinalBits bits and
// the per-table sequence above them, below 2^53 because IDs travel as
// float64 in a Row: 65,535 engines ever added to a plane, and 2^37
// (1.4e11) IDs per table — the sequence of every engine follows the
// highest ID it has stored, so that is a bound on rows ever inserted
// into one table across the plane, not per engine.
const (
	ordinalBits = 16
	planeStride = 1 << ordinalBits
	// MaxOrdinal is the highest ordinal a plane engine can take.
	MaxOrdinal = planeStride - 1
	maxRowID   = 1<<53 - 1
)

// SetCommitHook installs (or, with nil, removes) the commit observer.
func (db *DB) SetCommitHook(h CommitHook) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.hook = h
}

// logOp queues one applied mutation for the hook; callers hold db.mu for
// writing. Without a hook nothing is built.
func (db *DB) logOp(op Op) {
	if db.hook != nil {
		db.ops = append(db.ops, op)
	}
}

// maxRetainedOps bounds the op scratch a DB keeps between calls, so one
// huge import does not pin its ops' capacity for the process lifetime.
const maxRetainedOps = 1024

// commit hands the call's queued ops to the hook and returns err, or the
// hook's error when err is nil. Every mutation call that queued ops ends
// here, on its error paths too: what was applied is logged. A hook error
// is latched in db.failed. Callers hold db.mu for writing.
func (db *DB) commit(err error) error {
	if len(db.ops) == 0 {
		return err
	}
	herr := db.hook(db.ops)
	if herr != nil {
		db.failed = herr
	}
	if cap(db.ops) > maxRetainedOps {
		db.ops = nil
	} else {
		clear(db.ops)
		db.ops = db.ops[:0]
	}
	if err != nil {
		return err
	}
	return herr
}

// NewDB creates an empty all-in-memory engine.
func NewDB() *DB { return NewDBOptions(Options{}) }

// NewDBOptions creates an empty engine with a storage policy.
func NewDBOptions(opts Options) *DB {
	db := &DB{
		tables: make(map[string]*table),
		procs:  make(map[string]Proc),
		opts:   opts,
		disk:   make(map[string]bool, len(opts.DiskTables)),
		stride: 1,
	}
	for _, name := range opts.DiskTables {
		db.disk[name] = true
	}
	return db
}

// NewPlaneDB creates the engine of one member of a sharded plane. The
// ordinal is the member's identity in every ID it mints: it must be
// unique among all engines the plane has ever had, including retired
// ones, because their rows live on wherever they migrated.
func NewPlaneDB(ordinal int, opts Options) (*DB, error) {
	if ordinal < 0 || ordinal > MaxOrdinal {
		return nil, fmt.Errorf("store: plane ordinal %d out of range [0, %d]: the plane's engine budget is spent", ordinal, MaxOrdinal)
	}
	db := NewDBOptions(opts)
	db.stride, db.ordinal = planeStride, int64(ordinal)
	return db, nil
}

// Seq returns the sequence half of an ID minted by a plane engine: 1 for
// the first row of a table, 2 for the second, whatever the ordinal.
func Seq(id int64) int64 { return id >> ordinalBits }

// idAfter returns the ID this engine mints once max is the highest ID
// its table has stored: the first of its own stripe in the next sequence
// step, so it is above every ID seen, minted here or not.
func (db *DB) idAfter(max int64) int64 {
	return (max/db.stride+1)*db.stride + db.ordinal
}

// openEngine resolves and opens the engine for a new table: an explicit
// spec wins, then the DiskTables policy, then the default. Disk resolves
// to memory when no factory is wired.
func (db *DB) openEngine(spec TableSpec) (Engine, string, error) {
	kind := spec.Engine
	if kind == "" {
		if db.disk[spec.Name] {
			kind = EngineDisk
		} else if db.opts.DefaultEngine != "" {
			kind = db.opts.DefaultEngine
		} else {
			kind = EngineMem
		}
	}
	if kind == EngineDisk && db.opts.DiskFactory != nil {
		eng, err := db.opts.DiskFactory(spec.Name)
		if err != nil {
			return nil, "", fmt.Errorf("store: open disk engine for %s: %w", spec.Name, err)
		}
		return eng, EngineDisk, nil
	}
	return newMemEngine(), EngineMem, nil
}

// CreateTable adds a table. When the resolved engine already holds rows
// (a disk-resident table surviving from the previous boot), the table
// attaches to them: secondary and unique indexes are rebuilt with one
// sequential scan and the auto-increment watermark resumes past the
// highest stored ID.
func (db *DB) CreateTable(spec TableSpec) error {
	if spec.Name == "" {
		return ErrBadQuery
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.failed != nil {
		return db.failed
	}
	if _, ok := db.tables[spec.Name]; ok {
		return ErrTableExists
	}
	eng, kind, err := db.openEngine(spec)
	if err != nil {
		return err
	}
	if kind == EngineDisk {
		// Self-describing specs: checkpoints and snapshots carry the
		// placement, so recovery re-attaches without re-consulting policy.
		spec.Engine = EngineDisk
	}
	t := &table{
		spec:    spec,
		eng:     eng,
		nextID:  db.idAfter(eng.MaxID()),
		indexes: make(map[string]map[string][]int64),
		unique:  make(map[string]map[string]int64),
	}
	for _, col := range spec.Index {
		t.indexes[col] = make(map[string][]int64)
	}
	for _, col := range spec.Unique {
		t.unique[col] = make(map[string]int64)
	}
	if eng.Count() > 0 && (len(t.indexes) > 0 || len(t.unique) > 0) {
		err := eng.Scan(1, math.MaxInt64, func(id int64, r Row) bool {
			for col, idx := range t.indexes {
				if v, ok := r[col]; ok {
					key := canon(v)
					idx[key] = append(idx[key], id)
				}
			}
			for col, idx := range t.unique {
				if v, ok := r[col]; ok {
					idx[canon(v)] = id
				}
			}
			return true
		})
		if err != nil {
			eng.Close()
			return fmt.Errorf("store: rebuild indexes for %s: %w", spec.Name, err)
		}
	}
	db.tables[spec.Name] = t
	specCopy := spec
	db.logOp(Op{Kind: OpCreate, Table: spec.Name, Spec: &specCopy})
	return db.commit(nil)
}

// Tables returns the table names, sorted — one consistent read-lock
// snapshot, so a concurrent CreateTable is either fully visible or not
// at all.
func (db *DB) Tables() []string {
	db.mu.RLock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	db.mu.RUnlock()
	sort.Strings(names)
	return names
}

// canon renders a value as an index key; JSON round trips make float64 the
// canonical numeric type.
func canon(v any) string {
	switch x := v.(type) {
	case nil:
		return "<nil>"
	case string:
		return "s:" + x
	case bool:
		return "b:" + strconv.FormatBool(x)
	case float64:
		return "f:" + strconv.FormatFloat(x, 'g', -1, 64)
	case int:
		return canon(float64(x))
	case int64:
		return canon(float64(x))
	case float32:
		return canon(float64(x))
	default:
		return fmt.Sprintf("x:%v", x)
	}
}

// normalize copies a caller's row, coercing integer values to float64 so
// that in-process use and over-the-wire use index identically. The copy is
// what gets stored (with room for the ID column): exported methods never
// keep or change the map they were handed.
func normalize(r Row) Row {
	out := make(Row, len(r)+1)
	for k, v := range r {
		switch x := v.(type) {
		case int:
			out[k] = float64(x)
		case int64:
			out[k] = float64(x)
		case float32:
			out[k] = float64(x)
		default:
			out[k] = v
		}
	}
	return out
}

// addToIndexes hooks a stored row into the table's secondary and unique
// indexes. sorted keeps secondary postings in ID order (needed when IDs
// arrive out of order, i.e. the replay path).
func (t *table) addToIndexes(id int64, r Row, sorted bool) {
	for col, idx := range t.indexes {
		if v, ok := r[col]; ok {
			key := canon(v)
			idx[key] = append(idx[key], id)
			if sorted {
				sortIDs(idx[key])
			}
		}
	}
	for col, idx := range t.unique {
		if v, ok := r[col]; ok {
			idx[canon(v)] = id
		}
	}
}

// dropFromIndexes unhooks a row from every index.
func (t *table) dropFromIndexes(id int64, r Row) {
	for col, idx := range t.indexes {
		if v, ok := r[col]; ok {
			removeID(idx, canon(v), id)
		}
	}
	for col, idx := range t.unique {
		if v, ok := r[col]; ok {
			delete(idx, canon(v))
		}
	}
}

// Insert adds a copy of row and returns its ID.
func (db *DB) Insert(tableName string, row Row) (int64, error) {
	return db.insert(tableName, normalize(row))
}

// insert stores r itself — a normalized row the caller gives up (nil: an
// empty one).
func (db *DB) insert(tableName string, r Row) (int64, error) {
	if r == nil {
		r = Row{}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.failed != nil {
		return 0, db.failed
	}
	t, ok := db.tables[tableName]
	if !ok {
		return 0, ErrNoTable
	}
	// Unique checks first, so a violation leaves no trace.
	for col, idx := range t.unique {
		if v, ok := r[col]; ok {
			if _, dup := idx[canon(v)]; dup {
				return 0, fmt.Errorf("%w: %s=%v", ErrDupUnique, col, v)
			}
		}
	}
	id := t.nextID
	if id > maxRowID {
		return 0, fmt.Errorf("%w: table %s", ErrIDExhausted, tableName)
	}
	r[ID] = float64(id)
	if _, err := t.eng.Put(id, r); err != nil {
		return 0, err
	}
	t.nextID += db.stride
	t.addToIndexes(id, r, false)
	db.logOp(Op{Kind: OpInsert, Table: tableName, ID: id, Row: r})
	if err := db.commit(nil); err != nil {
		return 0, err
	}
	return id, nil
}

// InsertBatch adds rows to one table under a single write lock and
// returns their IDs in order — the per-check write path, where one frame
// carries every vantage row instead of paying a lock acquisition and a
// commit-hook stall per row. The batch is all-or-nothing: unique
// violations, against the table or within the batch itself, are detected
// before any row is applied. Each applied row still reports its own
// Op, so replay needs no new op kind, and the hook sees the batch's ops
// in one call — one log write, one fsync. The rows are copied, as in
// Insert.
func (db *DB) InsertBatch(tableName string, rows []Row) ([]int64, error) {
	norm := make([]Row, len(rows))
	for i, row := range rows {
		norm[i] = normalize(row)
	}
	return db.insertBatch(tableName, norm)
}

// insertBatch stores the rows of norm themselves — normalized rows the
// caller gives up (nil: an empty one).
func (db *DB) insertBatch(tableName string, norm []Row) ([]int64, error) {
	if len(norm) == 0 {
		return nil, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.failed != nil {
		return nil, db.failed
	}
	t, ok := db.tables[tableName]
	if !ok {
		return nil, ErrNoTable
	}
	for col, idx := range t.unique {
		var seen map[string]bool
		for _, r := range norm {
			v, ok := r[col]
			if !ok {
				continue
			}
			key := canon(v)
			if _, dup := idx[key]; dup || seen[key] {
				return nil, fmt.Errorf("%w: %s=%v", ErrDupUnique, col, v)
			}
			if seen == nil {
				seen = make(map[string]bool)
			}
			seen[key] = true
		}
	}
	if t.nextID+int64(len(norm)-1)*db.stride > maxRowID {
		return nil, fmt.Errorf("%w: table %s", ErrIDExhausted, tableName)
	}
	ids := make([]int64, len(norm))
	for i, r := range norm {
		if r == nil {
			r = Row{}
		}
		id := t.nextID
		r[ID] = float64(id)
		if _, err := t.eng.Put(id, r); err != nil {
			return nil, db.commit(err)
		}
		t.nextID += db.stride
		t.addToIndexes(id, r, false)
		ids[i] = id
		db.logOp(Op{Kind: OpInsert, Table: tableName, ID: id, Row: r})
	}
	if err := db.commit(nil); err != nil {
		return nil, err
	}
	return ids, nil
}

// InsertWithID stores a row under an ID that was minted before — by this
// engine (WAL replay) or by another engine of the same plane (a row
// moving between shards) — so the row keeps its identity and every
// reference to it stays valid. A row already stored under the ID is
// replaced (replay is idempotent); a unique-index conflict with a
// *different* row is still an error. The table's watermark rises past
// the ID, so this engine never mints an ID at or below one it has seen.
func (db *DB) InsertWithID(tableName string, id int64, row Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.failed != nil {
		return db.failed
	}
	t, ok := db.tables[tableName]
	if !ok {
		return ErrNoTable
	}
	_, err := db.putWithID(t, id, row, true)
	return db.commit(err)
}

// ImportRows stores rows under the IDs they carry unless a row with that
// ID is already present — how rows arrive from another engine of the
// plane: the second leg of a dual-write, and the rebalance stream, which
// may re-send what a dual-write already delivered and must not overwrite
// the copy live updates are being mirrored onto. It returns how many rows
// were stored. Rows before a failing one stay applied (callers delete by
// ID to compensate; re-sending is harmless).
func (db *DB) ImportRows(tableName string, rows []Row) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.failed != nil {
		return 0, db.failed
	}
	t, ok := db.tables[tableName]
	if !ok {
		return 0, ErrNoTable
	}
	stored := 0
	for _, row := range rows {
		ok, err := db.putWithID(t, RowID(row), row, false)
		if err != nil {
			return stored, db.commit(fmt.Errorf("store: import %s: %w", tableName, err))
		}
		if ok {
			stored++
		}
	}
	return stored, db.commit(nil)
}

// RowID reads a row's ID column (0 when absent or not a number).
func RowID(r Row) int64 {
	switch x := r[ID].(type) {
	case float64:
		return int64(x)
	case int64:
		return x
	case int:
		return int64(x)
	}
	return 0
}

// putWithID is InsertWithID under the write lock; with replace false an
// occupied ID is left as it is and reported as not stored. The caller
// commits the queued op.
func (db *DB) putWithID(t *table, id int64, row Row, replace bool) (bool, error) {
	if id <= 0 || id > maxRowID {
		return false, fmt.Errorf("%w: id %d", ErrBadQuery, id)
	}
	old, existed, err := t.eng.Get(id)
	if err != nil {
		return false, err
	}
	if existed && !replace {
		return false, nil
	}
	r := normalize(row)
	delete(r, ID)
	for col, idx := range t.unique {
		if v, ok := r[col]; ok {
			if other, dup := idx[canon(v)]; dup && other != id {
				return false, fmt.Errorf("%w: %s=%v", ErrDupUnique, col, v)
			}
		}
	}
	if existed {
		// Replace: unhook the old row from every index.
		t.dropFromIndexes(id, old)
	}
	r[ID] = float64(id)
	if _, err := t.eng.Put(id, r); err != nil {
		return false, err
	}
	if id >= t.nextID {
		t.nextID = db.idAfter(id)
	}
	t.addToIndexes(id, r, true)
	db.logOp(Op{Kind: OpInsert, Table: t.spec.Name, ID: id, Row: r})
	return true, nil
}

// Get fetches a row by ID; the returned row is a copy.
func (db *DB) Get(tableName string, id int64) (Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return nil, ErrNoTable
	}
	r, ok, err := t.eng.Get(id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNoRow
	}
	return copyRow(r), nil
}

// Update merges updates into the row with the given ID.
func (db *DB) Update(tableName string, id int64, updates Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.failed != nil {
		return db.failed
	}
	t, ok := db.tables[tableName]
	if !ok {
		return ErrNoTable
	}
	cur, ok, err := t.eng.Get(id)
	if err != nil {
		return err
	}
	if !ok {
		return ErrNoRow
	}
	up := normalize(updates)
	// Unique pre-check against other rows.
	for col, idx := range t.unique {
		if v, changed := up[col]; changed {
			if other, dup := idx[canon(v)]; dup && other != id {
				return fmt.Errorf("%w: %s=%v", ErrDupUnique, col, v)
			}
		}
	}
	merged := copyRow(cur) // cur may be engine-internal state
	for col, v := range up {
		if col == ID {
			continue
		}
		old, had := merged[col]
		if idx, indexed := t.indexes[col]; indexed {
			if had {
				removeID(idx, canon(old), id)
			}
			key := canon(v)
			idx[key] = append(idx[key], id)
			sortIDs(idx[key])
		}
		if idx, uniq := t.unique[col]; uniq {
			if had {
				delete(idx, canon(old))
			}
			idx[canon(v)] = id
		}
		merged[col] = v
	}
	if _, err := t.eng.Put(id, merged); err != nil {
		return err
	}
	db.logOp(Op{Kind: OpUpdate, Table: tableName, ID: id, Row: up})
	return db.commit(nil)
}

// Delete removes a row by ID.
func (db *DB) Delete(tableName string, id int64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.failed != nil {
		return db.failed
	}
	t, ok := db.tables[tableName]
	if !ok {
		return ErrNoTable
	}
	r, ok, err := t.eng.Get(id)
	if err != nil {
		return err
	}
	if !ok {
		return ErrNoRow
	}
	t.dropFromIndexes(id, r)
	if _, err := t.eng.Delete(id); err != nil {
		return err
	}
	db.logOp(Op{Kind: OpDelete, Table: tableName, ID: id})
	return db.commit(nil)
}

// DeleteBatch removes many rows from one table under a single write
// lock — the shard-rebalance cleanup path, where a cutover leaves
// thousands of foreign rows to drop and a lock acquisition per row
// would stall the engine. IDs not present are skipped (cleanup is
// idempotent); the number actually removed is returned. Each removed
// row still reports its own Op so WAL replay needs no new kind; the hook
// sees them in one call.
func (db *DB) DeleteBatch(tableName string, ids []int64) (int, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.failed != nil {
		return 0, db.failed
	}
	t, ok := db.tables[tableName]
	if !ok {
		return 0, ErrNoTable
	}
	removed := 0
	for _, id := range ids {
		r, ok, err := t.eng.Get(id)
		if err != nil {
			return removed, db.commit(err)
		}
		if !ok {
			continue
		}
		t.dropFromIndexes(id, r)
		if _, err := t.eng.Delete(id); err != nil {
			return removed, db.commit(err)
		}
		removed++
		db.logOp(Op{Kind: OpDelete, Table: tableName, ID: id})
	}
	return removed, db.commit(nil)
}

// Counts reports the live row count of every table — the shard status
// surface, cheap enough to poll because it never touches row data. The
// whole report is one read-lock snapshot: a table created concurrently
// is either present with its count or absent, never half-visible
// (callers fan this out across the shard ring and merge).
func (db *DB) Counts() map[string]int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]int, len(db.tables))
	for name, t := range db.tables {
		out[name] = int(t.eng.Count())
	}
	return out
}

// TableStat is one table's storage report for the /tables surface.
type TableStat struct {
	Name   string `json:"name"`
	Engine string `json:"engine"`
	Rows   int64  `json:"rows"`
	// DiskBytes/MemBytes/Runs mirror EngineStats for disk-resident tables.
	DiskBytes int64 `json:"disk_bytes,omitempty"`
	MemBytes  int64 `json:"mem_bytes,omitempty"`
	Runs      int   `json:"runs,omitempty"`
}

// TableStats reports every table's engine placement and footprint in one
// consistent read-lock snapshot, sorted by name.
func (db *DB) TableStats() []TableStat {
	db.mu.RLock()
	out := make([]TableStat, 0, len(db.tables))
	for name, t := range db.tables {
		st := t.eng.Stats()
		out = append(out, TableStat{
			Name:      name,
			Engine:    st.Kind,
			Rows:      st.Rows,
			DiskBytes: st.DiskBytes,
			MemBytes:  st.MemBytes,
			Runs:      st.Runs,
		})
	}
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FlushEngines makes every table engine's applied state durable — the
// checkpoint cycle calls this before retiring WAL segments, so a disk
// engine's files plus the WAL tail always cover every committed op.
func (db *DB) FlushEngines() error {
	db.mu.RLock()
	engines := make([]Engine, 0, len(db.tables))
	for _, t := range db.tables {
		engines = append(engines, t.eng)
	}
	db.mu.RUnlock()
	for _, eng := range engines {
		if err := eng.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases every table engine (disk engines hold open files). The
// DB must not be used afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var first error
	for _, t := range db.tables {
		if err := t.eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	db.tables = make(map[string]*table)
	return first
}

// idBounds derives engine scan bounds from a query's _id range filter, so
// an ID-bounded range query touches only the covered stretch of a
// disk-resident table instead of sweeping it end to end.
func idBounds(num map[string]Range) (from, to int64) {
	from, to = 1, math.MaxInt64
	rng, ok := num[ID]
	if !ok {
		return from, to
	}
	if rng.Min != nil {
		from = int64(math.Ceil(*rng.Min))
	}
	if rng.Max != nil && *rng.Max < math.MaxInt64 {
		to = int64(math.Floor(*rng.Max))
	}
	return from, to
}

// iterate streams matching rows to fn in ID order under the read lock,
// without materializing the candidate set: the indexed path resolves
// posting lists to point Gets, the unindexed path rides the engine's
// ordered scan (bounded by any _id range filter). fn returns false to
// stop early. Rows passed to fn may be engine-internal — copy before
// retaining.
func (db *DB) iterate(q Query, fn func(Row) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[q.Table]
	if !ok {
		return ErrNoTable
	}
	eq := normalize(q.Eq)

	var candidates []int64
	usedIdx := false
	for col, v := range eq {
		if idx, indexed := t.indexes[col]; indexed {
			candidates = idx[canon(v)]
			usedIdx = true
			break
		}
		if idx, uniq := t.unique[col]; uniq {
			if id, ok := idx[canon(v)]; ok {
				candidates = []int64{id}
			}
			usedIdx = true
			break
		}
	}
	if usedIdx {
		for _, id := range candidates {
			r, ok, err := t.eng.Get(id)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if !matches(r, eq) || !inRanges(r, q.Num) {
				continue
			}
			if !fn(r) {
				return nil
			}
		}
		return nil
	}
	from, to := idBounds(q.Num)
	return t.eng.Scan(from, to, func(id int64, r Row) bool {
		if !matches(r, eq) || !inRanges(r, q.Num) {
			return true
		}
		return fn(r)
	})
}

// Select returns rows matching the query in insertion order. Uses an index
// for the first indexed Eq column, streaming the engine's ID-ordered scan
// otherwise — a range query over a disk-resident table reads only as far
// as its limit needs instead of copying the table.
func (db *DB) Select(q Query) ([]Row, error) {
	var out []Row
	err := db.iterate(q, func(r Row) bool {
		out = append(out, copyRow(r))
		// Early limit cut only when no post-sort is requested.
		return q.OrderBy != "" || q.Limit <= 0 || len(out) < q.Limit
	})
	if err != nil {
		return nil, err
	}
	if q.OrderBy != "" {
		col := q.OrderBy
		sort.SliceStable(out, func(i, j int) bool {
			less := LessValues(out[i][col], out[j][col])
			if q.Desc {
				return LessValues(out[j][col], out[i][col])
			}
			return less
		})
		if q.Limit > 0 && len(out) > q.Limit {
			out = out[:q.Limit]
		}
	}
	return out, nil
}

// ScanRange streams a table's rows in ascending ID order over
// from <= _id <= to (to <= 0 means unbounded), calling fn until it
// returns false. The rows are copies; fn runs under the table's read
// lock, so keep it fast. This is the iterator path range queries over
// history_points ride: both engines stream, neither copies the table.
func (db *DB) ScanRange(tableName string, from, to int64, fn func(id int64, r Row) bool) error {
	if from < 1 {
		from = 1
	}
	if to <= 0 {
		to = math.MaxInt64
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return ErrNoTable
	}
	return t.eng.Scan(from, to, func(id int64, r Row) bool {
		return fn(id, copyRow(r))
	})
}

// inRanges checks every numeric range filter; rows lacking the column or
// holding a non-number never match.
func inRanges(r Row, num map[string]Range) bool {
	for col, rng := range num {
		v, ok := r[col].(float64)
		if !ok {
			return false
		}
		if rng.Min != nil && v < *rng.Min {
			return false
		}
		if rng.Max != nil && v > *rng.Max {
			return false
		}
	}
	return true
}

// LessValues is the ordering of OrderBy: numbers before strings, numbers
// numerically, strings lexicographically; missing values sort first.
func LessValues(a, b any) bool {
	af, aNum := a.(float64)
	bf, bNum := b.(float64)
	switch {
	case a == nil:
		return b != nil
	case b == nil:
		return false
	case aNum && bNum:
		return af < bf
	case aNum:
		return true
	case bNum:
		return false
	}
	as, aStr := a.(string)
	bs, bStr := b.(string)
	if aStr && bStr {
		return as < bs
	}
	return fmt.Sprintf("%v", a) < fmt.Sprintf("%v", b)
}

// Count returns the number of matching rows, streaming instead of
// materializing the result set (a count over a disk-resident table
// decodes pages but never builds rows up).
func (db *DB) Count(q Query) (int, error) {
	n := 0
	err := db.iterate(q, func(Row) bool {
		n++
		return true
	})
	if err != nil {
		return 0, err
	}
	if q.Limit > 0 && n > q.Limit {
		n = q.Limit
	}
	return n, nil
}

// RegisterProc installs a stored procedure.
func (db *DB) RegisterProc(name string, p Proc) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.procs[name] = p
}

// CallProc runs a stored procedure. The procedure receives the engine
// itself; it must not call CallProc re-entrantly.
func (db *DB) CallProc(name string, args json.RawMessage) (any, error) {
	db.mu.RLock()
	p, ok := db.procs[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoProc, name)
	}
	return p(db, args)
}

func matches(r Row, eq map[string]any) bool {
	for k, v := range eq {
		got, ok := r[k]
		if !ok || canon(got) != canon(v) {
			return false
		}
	}
	return true
}

func copyRow(r Row) Row {
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

func removeID(idx map[string][]int64, key string, id int64) {
	ids := idx[key]
	for i, v := range ids {
		if v == id {
			idx[key] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(idx[key]) == 0 {
		delete(idx, key)
	}
}

func sortIDs(ids []int64) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
