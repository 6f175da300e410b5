package diskengine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"pricesheriff/internal/obs"
	"pricesheriff/internal/store"
)

// Options configure a factory of disk-resident table engines.
type Options struct {
	// Dir is the engine root; each table gets a subdirectory.
	Dir string
	// CacheBytes is the byte budget of the block cache shared by every
	// table the factory opens (-page-cache-mb). 0 gets a small default.
	CacheBytes int64
	// Fsync syncs run files and manifests at flush/compaction time.
	// Leave it on except in tests: the WAL above may be running relaxed
	// fsync policies, but engine files retire WAL segments, so a lost
	// run is a lost table.
	Fsync bool
	// Metrics receives sheriff_engine_* series (optional).
	Metrics *obs.Registry
	// CompactRuns is the run-count high-water mark that triggers a full
	// merge at the next flush (default 4).
	CompactRuns int
}

// NewFactory returns the per-table opener store.Options.DiskFactory
// expects. All tables share one block cache.
func NewFactory(opts Options) func(table string) (store.Engine, error) {
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 4 << 20
	}
	if opts.CompactRuns <= 0 {
		opts.CompactRuns = 4
	}
	shared := newCache(opts.CacheBytes, opts.Metrics)
	return func(table string) (store.Engine, error) {
		return open(opts, table, shared)
	}
}

// manifest is the table's durable run catalog. Runs not listed here are
// dead — a crash between writing a compacted run and deleting its inputs
// must not resurrect tombstoned rows, so the manifest swap (temp file,
// fsync, rename, dir fsync) is the single commit point and open deletes
// every unlisted file.
type manifest struct {
	Seq   uint64   `json:"seq"`
	Count int64    `json:"count"`
	MaxID int64    `json:"max_id"`
	Runs  []string `json:"runs"`
}

// memEntry is one memtable slot: a live row or a tombstone.
type memEntry struct {
	row  store.Row
	tomb bool
}

// Engine is one table's disk-resident store. See the package comment for
// the shape; see store.Engine for the locking contract (the extra
// engine-level lock exists because Flush runs outside the DB's write
// lock).
type Engine struct {
	mu          sync.RWMutex
	dir         string
	table       string
	fsync       bool
	compactRuns int
	cache       *cache

	mem      map[int64]memEntry
	memBytes int64
	runs     []*runReader // oldest → newest
	runNames []string
	count    int64
	maxID    int64
	seq      uint64
	dskBytes int64

	rowsG, diskG, runsG, memG *obs.Gauge
	flushes, compactions      *obs.Counter
}

func open(opts Options, table string, shared *cache) (*Engine, error) {
	dir := filepath.Join(opts.Dir, table)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &Engine{
		dir:         dir,
		table:       table,
		fsync:       opts.Fsync,
		compactRuns: opts.CompactRuns,
		cache:       shared,
		mem:         make(map[int64]memEntry),
	}
	if opts.Metrics != nil {
		e.rowsG = opts.Metrics.Gauge("sheriff_engine_rows", "table", table)
		e.diskG = opts.Metrics.Gauge("sheriff_engine_disk_bytes", "table", table)
		e.runsG = opts.Metrics.Gauge("sheriff_engine_runs", "table", table)
		e.memG = opts.Metrics.Gauge("sheriff_engine_memtable_bytes", "table", table)
		e.flushes = opts.Metrics.Counter("sheriff_engine_flushes_total", "table", table)
		e.compactions = opts.Metrics.Counter("sheriff_engine_compactions_total", "table", table)
	}

	var man manifest
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &man); err != nil {
			return nil, fmt.Errorf("diskengine: %s: manifest: %w", table, err)
		}
	case os.IsNotExist(err):
		// fresh table
	default:
		return nil, err
	}
	live := make(map[string]bool, len(man.Runs))
	for _, name := range man.Runs {
		live[name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, de := range entries {
		name := de.Name()
		if name == "manifest.json" || live[name] {
			continue
		}
		if strings.HasSuffix(name, ".sst") || strings.HasSuffix(name, ".tmp") {
			// Orphan from a crash mid-flush/compaction: not committed by
			// the manifest, so its contents are covered by the WAL tail.
			os.Remove(filepath.Join(dir, name))
		}
	}
	for _, name := range man.Runs {
		r, err := openRun(filepath.Join(dir, name), shared)
		if err != nil {
			e.closeRuns()
			return nil, err
		}
		e.runs = append(e.runs, r)
		e.runNames = append(e.runNames, name)
		e.dskBytes += r.size
	}
	e.count = man.Count
	e.maxID = man.MaxID
	e.seq = man.Seq
	e.publish()
	return e, nil
}

func (e *Engine) closeRuns() {
	for _, r := range e.runs {
		r.close()
	}
}

// publish refreshes the gauge surface; callers hold e.mu.
func (e *Engine) publish() {
	if e.rowsG == nil {
		return
	}
	e.rowsG.Set(e.count)
	e.diskG.Set(e.dskBytes)
	e.runsG.Set(int64(len(e.runs)))
	e.memG.Set(e.memBytes)
}

// approxRowBytes estimates a row's memtable footprint for the
// MemBytes stat — map overhead plus key and value payloads.
func approxRowBytes(r store.Row) int64 {
	n := int64(48)
	for k, v := range r {
		n += int64(len(k)) + 16
		if s, ok := v.(string); ok {
			n += int64(len(s))
		} else {
			n += 8
		}
	}
	return n
}

// existsLocked reports whether id holds a live row; callers hold e.mu.
func (e *Engine) existsLocked(id int64) (bool, error) {
	if id > e.maxID {
		return false, nil
	}
	if me, ok := e.mem[id]; ok {
		return !me.tomb, nil
	}
	for i := len(e.runs) - 1; i >= 0; i-- {
		ent, ok, err := e.runs[i].get(id)
		if err != nil {
			return false, err
		}
		if ok {
			return !ent.tomb, nil
		}
	}
	return false, nil
}

// Put implements store.Engine.
func (e *Engine) Put(id int64, row store.Row) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	existed, err := e.existsLocked(id)
	if err != nil {
		return false, err
	}
	if old, ok := e.mem[id]; ok && !old.tomb {
		e.memBytes -= approxRowBytes(old.row)
	}
	e.mem[id] = memEntry{row: row}
	e.memBytes += approxRowBytes(row)
	if !existed {
		e.count++
	}
	if id > e.maxID {
		e.maxID = id
	}
	e.publish()
	return existed, nil
}

// Get implements store.Engine. Rows from the memtable alias engine
// state (the DB copies before hand-out); rows from runs are freshly
// decoded.
func (e *Engine) Get(id int64) (store.Row, bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if me, ok := e.mem[id]; ok {
		if me.tomb {
			return nil, false, nil
		}
		return me.row, true, nil
	}
	for i := len(e.runs) - 1; i >= 0; i-- {
		ent, ok, err := e.runs[i].get(id)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			continue
		}
		if ent.tomb {
			return nil, false, nil
		}
		r, err := e.runs[i].decodeRow(ent.data)
		if err != nil {
			return nil, false, err
		}
		return r, true, nil
	}
	return nil, false, nil
}

// Delete implements store.Engine.
func (e *Engine) Delete(id int64) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	existed, err := e.existsLocked(id)
	if err != nil {
		return false, err
	}
	if !existed {
		return false, nil
	}
	if old, ok := e.mem[id]; ok && !old.tomb {
		e.memBytes -= approxRowBytes(old.row)
	}
	// The tombstone must outlive the runs that still hold the row; the
	// memtable flush writes it out and full-merge compaction retires it.
	e.mem[id] = memEntry{tomb: true}
	e.count--
	e.publish()
	return true, nil
}

// Scan implements store.Engine: a k-way merge of the memtable and every
// run, newest source winning per ID, tombstones elided.
func (e *Engine) Scan(from, to int64, fn func(id int64, row store.Row) bool) error {
	if from < 1 {
		from = 1
	}
	e.mu.RLock()
	defer e.mu.RUnlock()

	memIDs := make([]int64, 0, len(e.mem))
	for id := range e.mem {
		if id >= from && id <= to {
			memIDs = append(memIDs, id)
		}
	}
	sort.Slice(memIDs, func(i, j int) bool { return memIDs[i] < memIDs[j] })
	memPos := 0

	iters := make([]*runIter, len(e.runs))
	for i, r := range e.runs {
		iters[i] = r.iter(from)
	}

	for {
		// Find the smallest pending ID across every source.
		min := int64(-1)
		if memPos < len(memIDs) {
			min = memIDs[memPos]
		}
		for _, it := range iters {
			if ent, ok := it.peek(); ok && (min < 0 || ent.id < min) {
				min = ent.id
			}
		}
		if min < 0 || min > to {
			break
		}
		// Resolve the winner: memtable over runs, newer run over older —
		// and advance every source sitting on this ID.
		var win memEntry
		haveWin := false
		if memPos < len(memIDs) && memIDs[memPos] == min {
			win, haveWin = e.mem[min], true
			memPos++
		}
		for i := len(iters) - 1; i >= 0; i-- {
			ent, ok := iters[i].peek()
			if !ok || ent.id != min {
				continue
			}
			if !haveWin {
				if ent.tomb {
					win = memEntry{tomb: true}
				} else {
					r, err := e.runs[i].decodeRow(ent.data)
					if err != nil {
						return err
					}
					win = memEntry{row: r}
				}
				haveWin = true
			}
			iters[i].next()
		}
		if win.tomb {
			continue
		}
		if !fn(min, win.row) {
			return nil
		}
	}
	for _, it := range iters {
		if it.err != nil {
			return it.err
		}
	}
	return nil
}

// Count implements store.Engine.
func (e *Engine) Count() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.count
}

// MaxID implements store.Engine.
func (e *Engine) MaxID() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.maxID
}

// Flush implements store.Engine: spill the memtable into a new run,
// commit it via the manifest, then full-merge if runs piled up or one of
// them is a PSR1 run (so an upgraded table's JSON rows retire at its
// first flush). The checkpoint cycle calls this before WAL segments
// retire, making the run files + WAL tail a complete redo history. The
// engine is locked exclusively for the duration — flushes are
// checkpoint-time events, not hot-path ones.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.mem) > 0 {
		if err := e.flushMemLocked(); err != nil {
			return err
		}
	}
	if len(e.runs) > e.compactRuns || e.hasJSONRunLocked() {
		if err := e.compactLocked(); err != nil {
			return err
		}
	}
	e.publish()
	return nil
}

// hasJSONRunLocked reports whether a PSR1 run is still live; callers
// hold e.mu.
func (e *Engine) hasJSONRunLocked() bool {
	for _, r := range e.runs {
		if r.json {
			return true
		}
	}
	return false
}

func (e *Engine) runFileName() string {
	e.seq++
	return fmt.Sprintf("run-%08d.sst", e.seq)
}

// flushMemLocked writes the memtable (rows and tombstones, ID order) as
// the newest run and commits the new run set.
func (e *Engine) flushMemLocked() error {
	ids := make([]int64, 0, len(e.mem))
	for id := range e.mem {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	name := e.runFileName()
	r, err := e.writeRun(name, func(add func(id int64, data []byte, tomb bool) error) error {
		var data []byte // add copies it into the block
		for _, id := range ids {
			me := e.mem[id]
			if me.tomb {
				if err := add(id, nil, true); err != nil {
					return err
				}
				continue
			}
			data = store.AppendRow(data[:0], me.row)
			if err := add(id, data, false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	names := append(append([]string{}, e.runNames...), name)
	if err := e.commitManifest(names); err != nil {
		r.close()
		os.Remove(filepath.Join(e.dir, name))
		return err
	}
	e.runs = append(e.runs, r)
	e.runNames = names
	e.dskBytes += r.size
	e.mem = make(map[int64]memEntry)
	e.memBytes = 0
	if e.flushes != nil {
		e.flushes.Inc()
	}
	return nil
}

// compactLocked full-merges every run into one, dropping tombstones and
// shadowed versions, then retires the inputs. Runs only when the
// memtable is empty (right after a flush), so the merged run is the
// table's complete durable state. Rows are copied as encoded, except a
// PSR1 run's, which are re-encoded.
func (e *Engine) compactLocked() error {
	name := e.runFileName()
	merged := int64(0)
	r, err := e.writeRun(name, func(add func(id int64, data []byte, tomb bool) error) error {
		var buf []byte // add copies it into the block
		iters := make([]*runIter, len(e.runs))
		for i, run := range e.runs {
			iters[i] = run.iter(1)
		}
		for {
			min := int64(-1)
			for _, it := range iters {
				if ent, ok := it.peek(); ok && (min < 0 || ent.id < min) {
					min = ent.id
				}
			}
			if min < 0 {
				break
			}
			var win blockEntry
			winRun := -1
			for i := len(iters) - 1; i >= 0; i-- {
				ent, ok := iters[i].peek()
				if !ok || ent.id != min {
					continue
				}
				if winRun < 0 {
					win, winRun = ent, i
				}
				iters[i].next()
			}
			if win.tomb {
				continue
			}
			data := win.data
			if e.runs[winRun].json {
				row, err := e.runs[winRun].decodeRow(data)
				if err != nil {
					return err
				}
				buf = store.AppendRow(buf[:0], row)
				data = buf
			}
			merged++
			if err := add(min, data, false); err != nil {
				return err
			}
		}
		for _, it := range iters {
			if it.err != nil {
				return it.err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.count = merged // memtable is empty: the merged run is everything
	if err := e.commitManifest([]string{name}); err != nil {
		r.close()
		os.Remove(filepath.Join(e.dir, name))
		return err
	}
	old, oldNames := e.runs, e.runNames
	e.runs = []*runReader{r}
	e.runNames = []string{name}
	e.dskBytes = r.size
	for i, run := range old {
		run.close()
		e.cache.dropFile(run.name)
		os.Remove(filepath.Join(e.dir, oldNames[i]))
	}
	if e.compactions != nil {
		e.compactions.Inc()
	}
	return nil
}

// writeRun builds one run file from an emit callback and reopens it for
// reading. The file is durable (modulo Fsync option) when this returns,
// but not yet committed — the manifest swap does that.
func (e *Engine) writeRun(name string, emit func(add func(id int64, data []byte, tomb bool) error) error) (*runReader, error) {
	path := filepath.Join(e.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	rw := newRunWriter(f)
	if err := emit(rw.add); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if err := rw.finish(e.fsync); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	f.Close()
	r, err := openRun(path, e.cache)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return r, nil
}

// commitManifest atomically replaces the run catalog; callers hold e.mu.
func (e *Engine) commitManifest(runs []string) error {
	man := manifest{Seq: e.seq, Count: e.count, MaxID: e.maxID, Runs: runs}
	data, err := json.Marshal(&man)
	if err != nil {
		return err
	}
	tmp := filepath.Join(e.dir, "manifest.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if e.fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(e.dir, "manifest.json")); err != nil {
		os.Remove(tmp)
		return err
	}
	if e.fsync {
		if d, err := os.Open(e.dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}

// Stats implements store.Engine.
func (e *Engine) Stats() store.EngineStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return store.EngineStats{
		Kind:      store.EngineDisk,
		Rows:      e.count,
		DiskBytes: e.dskBytes,
		MemBytes:  e.memBytes,
		Runs:      len(e.runs),
	}
}

// CacheCounters reports the shared block cache's lifetime hit/miss
// totals (for the /tables hit-ratio surface).
func (e *Engine) CacheCounters() (hits, misses int64) {
	return e.cache.counters()
}

// Close implements store.Engine: flush the memtable so the next boot
// reattaches without replaying it, then release file handles.
func (e *Engine) Close() error {
	if err := e.Flush(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closeRuns()
	e.runs = nil
	return nil
}
