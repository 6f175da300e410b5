package history

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"pricesheriff/internal/obs"
	"pricesheriff/internal/store"
)

// TestWALWriteFailureIsFailStop: a mutation whose log write fails is not
// acknowledged, and neither is any later one — the store refuses writes
// rather than ack rows behind a hole in the log.
func TestWALWriteFailureIsFailStop(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	db, p := openPersisted(t, t.TempDir(), Options{WAL: WALOptions{Fsync: FsyncOff}, Metrics: m})
	defer p.Close()
	if err := db.CreateTable(testSpec); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertBatch(testSpec.Name, []store.Row{{"kind": "a"}}); err != nil {
		t.Fatal(err)
	}
	p.WAL().Close() // every later append fails, as on ENOSPC or EIO

	if _, err := db.InsertBatch(testSpec.Name, []store.Row{{"kind": "b"}, {"kind": "c"}}); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("InsertBatch after a failed log write: err = %v, want ErrWALClosed", err)
	}
	if n := m.walErrors.Value(); n != 1 {
		t.Fatalf("sheriff_history_wal_errors_total = %d, want 1", n)
	}
	if _, err := db.Insert(testSpec.Name, store.Row{"kind": "d"}); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("a later Insert: err = %v, want the latched ErrWALClosed", err)
	}
	if err := db.CreateTable(store.TableSpec{Name: "other"}); err == nil {
		t.Fatal("a later CreateTable was acknowledged")
	}
	if n := m.walErrors.Value(); n != 1 {
		t.Fatalf("latched refusals counted as new WAL errors: %d", n)
	}
	if rows, err := db.Select(store.Query{Table: testSpec.Name, Eq: map[string]any{"kind": "d"}}); err != nil || len(rows) != 0 {
		t.Fatalf("the refused Insert's row is served: %v, %v", rows, err)
	}
	if names := db.Tables(); slices.Contains(names, "other") {
		t.Fatalf("the refused CreateTable made its table: %v", names)
	}
}

// TestRefusedWriteDoesNotReturnAfterReopen: on a disk table, a mutation
// refused after a failed log write is not in the engine, so the clean
// shutdown's flush cannot write it into a run and a reopen does not
// bring it back.
func TestRefusedWriteDoesNotReturnAfterReopen(t *testing.T) {
	dir := t.TempDir()
	spec := store.TableSpec{Name: "points", Index: []string{"url"}}
	db := diskDB(dir)
	p, err := Open(dir, db, Options{WAL: WALOptions{Fsync: FsyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(spec.Name, store.Row{"url": "logged"}); err != nil {
		t.Fatal(err)
	}
	p.WAL().Close()
	if _, err := db.Insert(spec.Name, store.Row{"url": "unacknowledged"}); err == nil {
		t.Fatal("an Insert whose log write failed was acknowledged")
	}
	if _, err := db.Insert(spec.Name, store.Row{"url": "refused"}); err == nil {
		t.Fatal("an Insert after a failed log write was acknowledged")
	}
	p.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := diskDB(dir)
	p2, err := Open(dir, db2, Options{WAL: WALOptions{Fsync: FsyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	defer p2.Close()
	for url, want := range map[string]int{"logged": 1, "refused": 0} {
		rows, err := db2.Select(store.Query{Table: spec.Name, Eq: map[string]any{"url": url}})
		if err != nil || len(rows) != want {
			t.Fatalf("after reopen, rows with url %q: %v (err %v), want %d", url, rows, err, want)
		}
	}
}

// TestTornBatchWriteRecoversAPrefix cuts the one write of an InsertBatch
// at every byte: recovery must give back exactly the rows of the frames
// that ended before the cut, in order, and nothing of the torn one.
func TestTornBatchWriteRecoversAPrefix(t *testing.T) {
	src := t.TempDir()
	db, p := openPersisted(t, src, Options{WAL: WALOptions{Fsync: FsyncOff}})
	if err := db.CreateTable(testSpec); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(src, segmentName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	before := fi.Size()
	batch := make([]store.Row, 5)
	for i := range batch {
		batch[i] = store.Row{"kind": "w", "n": float64(i), "note": strings.Repeat("x", i)}
	}
	ids, err := db.InsertBatch(testSpec.Name, batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64 // where each frame of the batch write ends
	for off := before; off < int64(len(data)); {
		_, n, err := DecodeFrame(data[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += int64(n)
		ends = append(ends, off)
	}
	if len(ends) != len(batch) {
		t.Fatalf("batch wrote %d frames, want %d", len(ends), len(batch))
	}

	for cut := before; cut <= int64(len(data)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := sort.Search(len(ends), func(i int) bool { return ends[i] > cut })
		db2, p2 := openPersisted(t, dir, Options{WAL: WALOptions{Fsync: FsyncOff}})
		rows, err := db2.Select(store.Query{Table: testSpec.Name})
		p2.Close()
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(rows) != want {
			t.Fatalf("cut at %d: recovered %d rows, want the %d whole frames", cut, len(rows), want)
		}
		for i, r := range rows {
			if store.RowID(r) != ids[i] || r["n"] != float64(i) {
				t.Fatalf("cut at %d: row %d = %v, want the batch's row %d", cut, i, r, i)
			}
		}
		if torn := cut != before && !slices.Contains(ends, cut); torn != p2.RepairedTail {
			t.Fatalf("cut at %d: RepairedTail = %v, want %v", cut, p2.RepairedTail, torn)
		}
	}
}

// TestUpgradeFromJSONRecordsAndPSR1Run recovers a data dir written by the
// build before the binary record: a checkpoint, a WAL tail of JSON
// records, and a disk table whose run holds JSON rows (PSR1). Every row
// must come back; one Compact must leave only binary records and PSR2
// runs; and a second reopen must read the same rows.
func TestUpgradeFromJSONRecordsAndPSR1Run(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, "testdata/legacy-psr1", dir)
	raw, err := os.ReadFile("testdata/legacy-psr1.want.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]store.Row
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if recs := walRecords(t, dir); len(recs) == 0 || recs[0][0] != '{' {
		t.Fatal("fixture: the WAL holds no JSON records")
	}
	if got := runMagics(t, dir); !reflect.DeepEqual(got, []string{"PSR1"}) {
		t.Fatalf("fixture: run magics %v, want one PSR1 run", got)
	}

	db := diskDB(dir)
	p, err := Open(dir, db, Options{WAL: WALOptions{Fsync: FsyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, "first open", db, want)
	if _, err := db.Insert("hot", store.Row{"kind": "new", "name": "after-upgrade"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("points", store.Row{"url": "http://after/compact", "price": 7.0}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range walRecords(t, dir) {
		if _, err := store.DecodeOp(rec); err != nil {
			t.Fatalf("after Compact the WAL holds a record that is not binary (%q): %v", rec, err)
		}
	}
	if got := runMagics(t, dir); !reflect.DeepEqual(got, []string{"PSR2"}) {
		t.Fatalf("after Compact run magics are %v, want one PSR2 run", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := diskDB(dir)
	p2, err := Open(dir, db2, Options{WAL: WALOptions{Fsync: FsyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	defer p2.Close()
	want["hot"] = append(want["hot"], store.Row{"_id": 8.0, "kind": "new", "name": "after-upgrade"})
	want["points"] = append(want["points"], store.Row{"_id": 18.0, "url": "http://after/compact", "price": 7.0})
	checkRows(t, "second open", db2, want)
}

// copyDir copies the files under src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkRows compares every table's rows, in ID order, with want as JSON
// reads them.
func checkRows(t *testing.T, when string, db *store.DB, want map[string][]store.Row) {
	t.Helper()
	for table, wantRows := range want {
		rows, err := db.Select(store.Query{Table: table})
		if err != nil {
			t.Fatalf("%s: %s: %v", when, table, err)
		}
		sort.Slice(rows, func(i, j int) bool { return store.RowID(rows[i]) < store.RowID(rows[j]) })
		got, _ := json.Marshal(rows)
		exp, _ := json.Marshal(wantRows)
		if !bytes.Equal(got, exp) {
			t.Fatalf("%s: %s:\n got %s\nwant %s", when, table, got, exp)
		}
	}
}

// walRecords returns every record payload in dir's WAL, oldest first.
func walRecords(t *testing.T, dir string) [][]byte {
	t.Helper()
	seqs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for _, seq := range seqs {
		if _, _, err := ReplaySegment(filepath.Join(dir, segmentName(seq)), func(p []byte) error {
			recs = append(recs, bytes.Clone(p))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// runMagics returns the footer magic of every run file under dir/engine.
func runMagics(t *testing.T, dir string) []string {
	t.Helper()
	var magics []string
	err := filepath.WalkDir(filepath.Join(dir, "engine"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".sst") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		magics = append(magics, string(data[len(data)-4:]))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return magics
}

// BenchmarkPersistedInsertBatch: one durable InsertBatch of ten 16-column
// rows — one WAL write per call, and under "always" one fsync.
func BenchmarkPersistedInsertBatch(b *testing.B) {
	for _, policy := range []FsyncPolicy{FsyncInterval, FsyncAlways} {
		b.Run(string(policy), func(b *testing.B) {
			db, p := openPersistedB(b, Options{WAL: WALOptions{Fsync: policy}})
			defer p.Close()
			rows := wideRows(10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.InsertBatch(testSpec.Name, rows); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
		})
	}
}

func openPersistedB(b *testing.B, opts Options) (*store.DB, *Persister) {
	b.Helper()
	db := store.NewDB()
	p, err := Open(b.TempDir(), db, opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := db.CreateTable(testSpec); err != nil {
		b.Fatal(err)
	}
	return db, p
}

// wideRows builds n rows of 16 columns shaped like a check's response
// rows: strings, prices, flags.
func wideRows(n int) []store.Row {
	rows := make([]store.Row, n)
	for i := range rows {
		r := store.Row{"kind": "response", "ok": true, "price": 19.99 + float64(i)}
		for c := 0; len(r) < 16; c++ {
			r[fmt.Sprintf("col%02d", c)] = fmt.Sprintf("value-%d-%d-%s", i, c, strings.Repeat("v", c))
		}
		rows[i] = r
	}
	return rows
}
