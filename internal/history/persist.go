package history

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"pricesheriff/internal/store"
)

// Options configure a Persister.
type Options struct {
	WAL WALOptions
	// AutoCompactSegments triggers a background compaction whenever the
	// number of on-disk WAL segments reaches this count (0 disables
	// automatic compaction; Compact can still be called explicitly).
	AutoCompactSegments int
	// Metrics receives durability telemetry (nil disables).
	Metrics *Metrics
}

// Persister makes a store.DB durable: on Open it restores the database
// from the newest checkpoint plus the WAL records logged after it, then
// hooks the DB's commit stream so every subsequent mutation call is
// written to the WAL — one record per op, one write per call — before the
// write lock is released: an acknowledged write is in the log in commit
// order, with no gap for a lost-but-acked update. A failed log write is
// fail-stop: that call returns the error, and the DB latches it and
// refuses every later mutation.
// Compaction folds cold segments into a fresh checkpoint so recovery time
// and disk usage stay bounded.
type Persister struct {
	dir  string
	db   *store.DB
	wal  *WAL
	opts Options

	mu         sync.Mutex
	compacting bool
	compactWG  sync.WaitGroup

	// Replay recovery stats, for operators and tests.
	ReplayedRecords int
	RepairedTail    bool
}

type checkpoint struct {
	Seq int64           `json:"seq"`
	DB  json.RawMessage `json:"db"`
}

// Open restores db from dir (creating dir on first boot) and begins
// logging its mutations. db should be empty; recovered state is replayed
// into it before Open returns.
func Open(dir string, db *store.DB, opts Options) (*Persister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opts.WAL.Metrics = opts.Metrics
	p := &Persister{dir: dir, db: db, opts: opts}

	// 1. Newest checkpoint, if any.
	var fromSeq int64 = 1
	cpPath := filepath.Join(dir, checkpointFile)
	if raw, err := os.ReadFile(cpPath); err == nil {
		var cp checkpoint
		if err := json.Unmarshal(raw, &cp); err != nil {
			return nil, fmt.Errorf("history: decode checkpoint: %w", err)
		}
		if err := db.ImportReplay(bytes.NewReader(cp.DB)); err != nil {
			return nil, fmt.Errorf("history: load checkpoint: %w", err)
		}
		fromSeq = cp.Seq
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	// 2. WAL records logged at or after the checkpoint cut. A torn tail is
	// legal only in the final segment (an interrupted append); anywhere
	// else it means lost history and recovery refuses to paper over it.
	seqs, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, seq := range seqs {
		if seq < fromSeq {
			continue
		}
		path := filepath.Join(dir, segmentName(seq))
		goodOff, torn, err := ReplaySegment(path, func(payload []byte) error {
			op, err := decodeRecord(payload)
			if err != nil {
				return fmt.Errorf("history: decode wal op: %w", err)
			}
			p.ReplayedRecords++
			return applyOp(db, op)
		})
		if err != nil {
			return nil, fmt.Errorf("history: replay %s: %w", segmentName(seq), err)
		}
		if torn {
			if i != len(seqs)-1 {
				return nil, fmt.Errorf("history: segment %s corrupt mid-log (not the tail)", segmentName(seq))
			}
			if err := os.Truncate(path, goodOff); err != nil {
				return nil, fmt.Errorf("history: repair torn tail: %w", err)
			}
			p.RepairedTail = true
			opts.Metrics.tornTail()
		}
	}
	opts.Metrics.replayed(p.ReplayedRecords)

	// 3. Open for appending and attach to the commit stream.
	wal, err := OpenWAL(dir, opts.WAL)
	if err != nil {
		return nil, err
	}
	p.wal = wal
	db.SetCommitHook(p.onCommit)
	return p, nil
}

// decodeRecord decodes one WAL record: a store.AppendOp record, or a
// JSON-encoded store.Op — what builds before the binary record logged,
// read so their data dirs recover and never written. The first
// compaction after such a boot retires the segments that hold them.
func decodeRecord(payload []byte) (store.Op, error) {
	if len(payload) > 0 && payload[0] == '{' {
		var op store.Op
		err := json.Unmarshal(payload, &op)
		return op, err
	}
	return store.DecodeOp(payload)
}

// applyOp replays one logged mutation idempotently: the checkpoint/WAL cut
// can overlap by up to one segment, so a replayed op may find its effect
// already present — create tolerates an existing table, insert overwrites
// by recorded ID, update/delete tolerate a missing row.
func applyOp(db *store.DB, op store.Op) error {
	switch op.Kind {
	case store.OpCreate:
		if op.Spec == nil {
			return fmt.Errorf("history: create op without spec")
		}
		if err := db.CreateTable(*op.Spec); err != nil && !errors.Is(err, store.ErrTableExists) {
			return err
		}
	case store.OpInsert:
		if err := db.InsertWithID(op.Table, op.ID, op.Row); err != nil {
			return err
		}
	case store.OpUpdate:
		if err := db.Update(op.Table, op.ID, op.Row); err != nil && !errors.Is(err, store.ErrNoRow) {
			return err
		}
	case store.OpDelete:
		if err := db.Delete(op.Table, op.ID); err != nil && !errors.Is(err, store.ErrNoRow) {
			return err
		}
	default:
		return fmt.Errorf("history: unknown wal op kind %q", op.Kind)
	}
	return nil
}

// onCommit runs synchronously under the DB's write lock, giving the log
// the same total order as the store. It must not call back into the DB.
// The ops and their rows are lent for the call (store.CommitHook): they
// are encoded straight into the WAL's frame buffer and not referenced
// afterwards. The call's records go to the WAL in one append — one write,
// and under FsyncAlways one fsync. A failed append is returned to the DB,
// which latches it and refuses every later mutation, so no write can be
// acknowledged behind a hole in the log.
func (p *Persister) onCommit(ops []store.Op) error {
	err := p.wal.AppendRecords(len(ops), func(b []byte, i int) []byte {
		return store.AppendOp(b, ops[i])
	})
	if err != nil {
		p.opts.Metrics.walError()
		return fmt.Errorf("history: wal append failed, store is read-only until restart: %w", err)
	}
	if n := p.opts.AutoCompactSegments; n > 0 && p.wal.SegmentCount() >= n {
		p.maybeCompactAsync()
	}
	return nil
}

// maybeCompactAsync starts one background compaction if none is running.
// Compaction must leave the commit hook's goroutine (it holds the DB write
// lock; the checkpoint export needs read locks) — running it inline would
// deadlock.
func (p *Persister) maybeCompactAsync() {
	p.mu.Lock()
	if p.compacting {
		p.mu.Unlock()
		return
	}
	p.compacting = true
	p.compactWG.Add(1)
	p.mu.Unlock()
	go func() {
		defer func() {
			p.mu.Lock()
			p.compacting = false
			p.mu.Unlock()
			p.compactWG.Done()
		}()
		p.Compact()
	}()
}

// Compact folds every sealed segment into a fresh checkpoint: rotate the
// WAL (records appended from here land at or after the returned cut),
// export the DB — which by then contains every op below the cut — to a
// temp file, atomically rename it over the checkpoint, and delete the
// folded segments. Crash-safe at every step: until the rename lands the
// old checkpoint + full WAL still recover, after it the segments below the
// cut are redundant (replay is idempotent, so re-applying the overlap is
// harmless).
func (p *Persister) Compact() error {
	cut, err := p.wal.Rotate()
	if err != nil && !errors.Is(err, ErrWALClosed) {
		return err
	}

	// Every op below the cut is already applied to the engines (the
	// commit hook logs after applying, under the same write lock), so
	// flushing now makes disk-resident tables durable in their own run
	// files — which is what lets the checkpoint below carry only their
	// specs, keeping checkpoint size and recovery time proportional to
	// the in-memory working set rather than to history volume.
	if err := p.db.FlushEngines(); err != nil {
		return fmt.Errorf("history: flush engines: %w", err)
	}

	tmp := filepath.Join(p.dir, checkpointFile+checkpointTempSuffix)
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, `{"seq":%d,"db":`, cut); err != nil {
		f.Close()
		return err
	}
	if err := p.db.ExportCheckpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.WriteString("}\n"); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(p.dir, checkpointFile)); err != nil {
		return err
	}
	syncDir(p.dir)

	if err := p.wal.RemoveBelow(cut); err != nil {
		return err
	}
	p.opts.Metrics.compacted()
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// WAL exposes the underlying log (for tests and stats).
func (p *Persister) WAL() *WAL { return p.wal }

// Close detaches from the DB, waits for any background compaction, and
// closes the WAL with a final sync.
func (p *Persister) Close() error {
	p.db.SetCommitHook(nil)
	p.compactWG.Wait()
	return p.wal.Close()
}
