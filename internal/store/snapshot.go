package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// Snapshot is a portable dump of a DB: every table's spec and live rows in
// insertion order. The deployment kept its measurement corpus in MySQL
// dumps; this is the equivalent for exporting a study's dataset or moving
// it between a live system and an analysis run.
type Snapshot struct {
	Tables []TableSnapshot `json:"tables"`
}

// TableSnapshot is one table's spec and rows. MaxID is the highest ID the
// table ever stored: rows that were deleted or moved to another shard are
// not in Rows, and ImportReplay must not mint their IDs again.
type TableSnapshot struct {
	Spec  TableSpec `json:"spec"`
	MaxID int64     `json:"max_id,omitempty"`
	Rows  []Row     `json:"rows"`
}

// IDMap records how an import reassigned row IDs: table → old ID → new
// ID. Callers use it to fix up cross-table references (e.g. the
// responses.request_id join onto requests).
type IDMap map[string]map[int64]int64

// exportChunk is how many rows are copied out per lock hold while
// streaming an export: small enough that writers are never stalled for a
// table-sized copy, large enough that lock churn stays negligible.
const exportChunk = 512

// Export writes the whole database as JSON, streaming in bounded chunks:
// the engine is locked only while one chunk of rows is copied out, so
// exporting a large DB neither doubles resident memory for the corpus nor
// stalls writers while a table encodes. Tables created after the export
// begins are not included; rows inserted behind the per-table ID cursor
// mid-export are not re-read.
func (db *DB) Export(w io.Writer) error {
	return db.export(w, false)
}

// ExportCheckpoint writes the snapshot the WAL checkpoint cycle embeds:
// identical to Export except that rows of disk-resident tables are
// omitted (spec only) — their bytes are already durable in the engine's
// own files, so re-serializing them would make checkpoint size (and
// recovery time) proportional to history volume instead of to the hot
// in-memory working set. Recovery re-attaches the table to its files via
// CreateTable and replays only the WAL tail over it.
func (db *DB) ExportCheckpoint(w io.Writer) error {
	return db.export(w, true)
}

func (db *DB) export(w io.Writer, skipDiskRows bool) error {
	db.mu.RLock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	db.mu.RUnlock()
	sort.Strings(names)

	if _, err := io.WriteString(w, `{"tables":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	firstTable := true
	for _, name := range names {
		db.mu.RLock()
		t, ok := db.tables[name]
		if !ok { // dropped mid-export
			db.mu.RUnlock()
			continue
		}
		spec := t.spec
		maxID := t.eng.MaxID()
		skipRows := skipDiskRows && spec.Engine == EngineDisk
		db.mu.RUnlock()

		if !firstTable {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		firstTable = false
		if _, err := io.WriteString(w, `{"spec":`); err != nil {
			return err
		}
		if err := enc.Encode(&spec); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, `,"max_id":%d,"rows":[`, maxID); err != nil {
			return err
		}
		if !skipRows {
			if err := db.exportRows(w, enc, name); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "]}"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// exportRows streams one table's rows, copying out at most exportChunk
// rows per read-lock hold and resuming from the last seen ID.
func (db *DB) exportRows(w io.Writer, enc *json.Encoder, name string) error {
	cursor := int64(1)
	firstRow := true
	for {
		db.mu.RLock()
		t, ok := db.tables[name]
		if !ok { // dropped mid-export
			db.mu.RUnlock()
			return nil
		}
		chunk := make([]Row, 0, exportChunk)
		err := t.eng.Scan(cursor, math.MaxInt64, func(id int64, r Row) bool {
			chunk = append(chunk, copyRow(r))
			cursor = id + 1
			return len(chunk) < exportChunk
		})
		db.mu.RUnlock()
		if err != nil {
			return err
		}
		for _, r := range chunk {
			if !firstRow {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			firstRow = false
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		if len(chunk) < exportChunk {
			return nil
		}
	}
}

// Import loads a snapshot into an empty database. Row IDs are reassigned
// sequentially; the returned IDMap gives the old→new assignment per table
// so callers can fix up cross-table references.
func (db *DB) Import(r io.Reader) (IDMap, error) {
	if n := len(db.Tables()); n != 0 {
		return nil, fmt.Errorf("store: import requires an empty database, have %d tables", n)
	}
	return db.ImportMerge(r)
}

// ImportMerge loads a snapshot into a possibly non-empty database:
// missing tables are created, existing ones keep their spec, and every
// imported row gets a fresh ID. The returned IDMap records the old→new
// assignment per table. Unique indexes are validated up front, so a
// rejected snapshot leaves the database untouched (a concurrent writer
// racing the merge with a conflicting insert can still fail it midway).
func (db *DB) ImportMerge(r io.Reader) (IDMap, error) {
	var snap Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("store: decode snapshot: %w", err)
	}
	if err := db.checkMergeable(&snap); err != nil {
		return nil, err
	}
	idmap := make(IDMap, len(snap.Tables))
	for _, ts := range snap.Tables {
		if err := db.CreateTable(ts.Spec); err != nil && !errors.Is(err, ErrTableExists) {
			return nil, err
		}
		m := make(map[int64]int64, len(ts.Rows))
		for _, row := range ts.Rows {
			clean := copyRow(row)
			oldID, _ := clean[ID].(float64)
			delete(clean, ID)
			newID, err := db.Insert(ts.Spec.Name, clean)
			if err != nil {
				return nil, fmt.Errorf("store: import %s: %w", ts.Spec.Name, err)
			}
			if oldID > 0 {
				m[int64(oldID)] = newID
			}
		}
		idmap[ts.Spec.Name] = m
	}
	return idmap, nil
}

// checkMergeable rejects a snapshot that would trip a unique index —
// against rows already stored or between the snapshot's own rows —
// before any of it is applied.
func (db *DB) checkMergeable(snap *Snapshot) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, ts := range snap.Tables {
		t := db.tables[ts.Spec.Name]
		// The live spec wins for existing tables, matching the merge.
		cols := ts.Spec.Unique
		if t != nil {
			cols = t.spec.Unique
		}
		if len(cols) == 0 {
			continue
		}
		seen := make(map[string]map[string]bool, len(cols))
		for _, col := range cols {
			seen[col] = make(map[string]bool)
		}
		for _, row := range ts.Rows {
			r := normalize(row)
			for _, col := range cols {
				v, ok := r[col]
				if !ok {
					continue
				}
				key := canon(v)
				if seen[col][key] {
					return fmt.Errorf("store: import %s: %w: %s=%v (duplicated in snapshot)", ts.Spec.Name, ErrDupUnique, col, v)
				}
				if t != nil {
					if _, dup := t.unique[col][key]; dup {
						return fmt.Errorf("store: import %s: %w: %s=%v", ts.Spec.Name, ErrDupUnique, col, v)
					}
				}
				seen[col][key] = true
			}
		}
	}
	return nil
}

// ImportReplay loads a snapshot preserving original row IDs — the
// WAL-recovery path, where cross-table references must survive verbatim
// and subsequent log records address rows by their recorded IDs. Existing
// tables are tolerated; rows already stored under an ID are replaced. A
// disk-resident table arriving with no rows (an ExportCheckpoint spec)
// re-attaches to its engine files inside CreateTable.
func (db *DB) ImportReplay(r io.Reader) error {
	var snap Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("store: decode snapshot: %w", err)
	}
	for _, ts := range snap.Tables {
		if err := db.CreateTable(ts.Spec); err != nil && !errors.Is(err, ErrTableExists) {
			return err
		}
		for _, row := range ts.Rows {
			id, _ := row[ID].(float64)
			if id <= 0 {
				return fmt.Errorf("store: replay %s: row without ID", ts.Spec.Name)
			}
			if err := db.InsertWithID(ts.Spec.Name, int64(id), row); err != nil {
				return fmt.Errorf("store: replay %s: %w", ts.Spec.Name, err)
			}
		}
		db.mu.Lock()
		if t := db.tables[ts.Spec.Name]; ts.MaxID >= t.nextID {
			t.nextID = db.idAfter(ts.MaxID)
		}
		db.mu.Unlock()
	}
	return nil
}
