package history

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pricesheriff/internal/store"
	"pricesheriff/internal/store/diskengine"
	"pricesheriff/internal/transport"
)

// diskDB builds a DB whose "points" table lives on the disk engine under
// dir/engine, mirroring how core wires -store-engine=disk.
func diskDB(dir string) *store.DB {
	return store.NewDBOptions(store.Options{
		DiskTables: []string{"points"},
		DiskFactory: diskengine.NewFactory(diskengine.Options{
			Dir:        filepath.Join(dir, "engine"),
			CacheBytes: 1 << 20,
		}),
	})
}

// TestCheckpointExcludesDiskRows: after a compaction, the JSON
// checkpoint must carry the disk table's spec but none of its rows (the
// run files own them), and recovery must reattach and see everything —
// including the WAL-tail ops logged after the cut.
func TestCheckpointExcludesDiskRows(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(dir)
	p, err := Open(dir, db, Options{WAL: WALOptions{Fsync: FsyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(store.TableSpec{Name: "points"}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(store.TableSpec{Name: "hot"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := db.Insert("points", store.Row{"url": fmt.Sprintf("http://x/%d", i), "price": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Insert("hot", store.Row{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	// Rows logged after the checkpoint cut live only in the WAL tail.
	if _, err := db.Insert("points", store.Row{"url": "http://tail", "price": 1.0}); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	cp := string(raw)
	if strings.Contains(cp, "http://x/") {
		t.Fatal("checkpoint contains disk-table rows")
	}
	if !strings.Contains(cp, `"points"`) {
		t.Fatal("checkpoint lost the disk table's spec")
	}
	if !strings.Contains(cp, `"k":"v"`) {
		t.Fatal("checkpoint lost the mem table's rows")
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
	defer p2.Close()
	defer db2.Close()
	counts := db2.Counts()
	if counts["points"] != 201 {
		t.Fatalf("recovered points = %d, want 201", counts["points"])
	}
	if counts["hot"] != 1 {
		t.Fatalf("recovered hot = %d, want 1", counts["hot"])
	}
	// Recovery must not have replayed the whole table — only the tail.
	if p2.ReplayedRecords > 10 {
		t.Fatalf("replayed %d records; recovery not bounded by checkpoint cut", p2.ReplayedRecords)
	}
	rows, err := db2.Select(store.Query{Table: "points", Eq: map[string]any{"url": "http://tail"}})
	if err != nil || len(rows) != 1 {
		t.Fatalf("tail row after recovery: %d rows, err %v", len(rows), err)
	}
}

// TestDiskTableCrashReplayIdempotent: without a clean Close (no final
// flush), the memtable's unflushed ops must come back from the WAL, and
// ops both flushed and still in the WAL must not double-apply.
func TestDiskTableCrashReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(dir)
	p, err := Open(dir, db, Options{WAL: WALOptions{Fsync: FsyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(store.TableSpec{Name: "points"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Insert("points", store.Row{"n": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Flush engines WITHOUT cutting the WAL: every op is now both in the
	// run files and in the log — the overlap a crash mid-checkpoint
	// leaves behind.
	if err := db.FlushEngines(); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("points", 7); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: close the WAL but skip the engine flush a
	// clean shutdown would do.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := diskDB(dir)
	p2, err := Open(dir, db2, Options{WAL: WALOptions{Fsync: FsyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	defer db2.Close()
	if got := db2.Counts()["points"]; got != 49 {
		t.Fatalf("recovered count = %d, want 49", got)
	}
	if _, err := db2.Get("points", 7); err != store.ErrNoRow {
		t.Fatalf("deleted row after replay: %v", err)
	}
	if r, err := db2.Get("points", 8); err != nil || r["n"] != float64(7) {
		t.Fatalf("row 8 = %v, %v", r, err)
	}
}

// TestWALFromStoredRowsReplays: the commit hook is shown the stored row
// itself — for a row that arrived in a request frame, the very map the
// frame was decoded into — and has marshalled it by the time it returns.
// The log written that way must rebuild the same rows on either engine,
// also for rows updated or deleted after the hook saw them.
func TestWALFromStoredRowsReplays(t *testing.T) {
	for _, tc := range []struct{ engine, table string }{{"mem", "hot"}, {"disk", "points"}} {
		t.Run(tc.engine, func(t *testing.T) {
			dir := t.TempDir()
			db := diskDB(dir)
			p, err := Open(dir, db, Options{WAL: WALOptions{Fsync: FsyncOff}})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.CreateTable(store.TableSpec{Name: tc.table, Index: []string{"job_id"}}); err != nil {
				t.Fatal(err)
			}
			netw := transport.NewInproc()
			lis, _ := netw.Listen("")
			srv := store.NewServer(db, lis)
			go srv.Serve()
			defer srv.Close()
			cli, err := store.Dial(netw, srv.Addr(), 1)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			var batch []store.Row
			for i := 0; i < 5; i++ {
				batch = append(batch, store.Row{"job_id": "job-1", "source": fmt.Sprintf("ipc-%d", i), "request_id": int64(7), "amount": 9.5 + float64(i)})
			}
			ids, err := cli.InsertBatchCtx(context.Background(), tc.table, batch)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cli.InsertCtx(context.Background(), tc.table, store.Row{"job_id": "job-2", "source": "ppc", "ok": true, "note": nil}); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Insert(tc.table, store.Row{"job_id": "job-2", "source": "local", "n": 3}); err != nil {
				t.Fatal(err)
			}
			if err := cli.UpdateCtx(context.Background(), tc.table, ids[1], store.Row{"amount": 1.25}); err != nil {
				t.Fatal(err)
			}
			if err := cli.DeleteCtx(context.Background(), tc.table, ids[3]); err != nil {
				t.Fatal(err)
			}
			want, err := db.Select(store.Query{Table: tc.table})
			if err != nil || len(want) != 6 {
				t.Fatalf("live rows: %d, err %v", len(want), err)
			}
			// Crash: the log is closed, the engines are not flushed.
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			db2 := diskDB(dir)
			p2, err := Open(dir, db2, Options{WAL: WALOptions{Fsync: FsyncOff}})
			if err != nil {
				t.Fatal(err)
			}
			defer p2.Close()
			defer db2.Close()
			got, err := db2.Select(store.Query{Table: tc.table})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("replayed rows differ from the rows that were logged:\n got %v\nwant %v", got, want)
			}
		})
	}
}
