package store_test

// Engine conformance: every relational behaviour the rest of the system
// leans on — select/query semantics, commit-hook ordering, InsertWithID
// replay idempotence, unique indexes, snapshot round trips — must be
// identical whichever engine holds the rows. The same scenarios run
// against the in-memory maps and the disk-resident LSM (with forced
// flushes injected so rows actually cross the memtable/run boundary).

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pricesheriff/internal/store"
	"pricesheriff/internal/store/diskengine"
)

// engineCase is one engine under test. newDB returns a fresh DB; cycle
// forces engine-internal state transitions mid-test (a flush for the
// disk engine, a no-op for mem) so scenarios cover rows living on both
// sides of the memtable boundary.
type engineCase struct {
	name  string
	newDB func(t *testing.T) *store.DB
	cycle func(t *testing.T, db *store.DB)
}

func engineCases() []engineCase {
	return []engineCase{
		{
			name:  "mem",
			newDB: func(t *testing.T) *store.DB { return store.NewDB() },
			cycle: func(t *testing.T, db *store.DB) {},
		},
		{
			name: "disk",
			newDB: func(t *testing.T) *store.DB {
				dir := t.TempDir()
				return store.NewDBOptions(store.Options{
					DefaultEngine: store.EngineDisk,
					DiskFactory: diskengine.NewFactory(diskengine.Options{
						Dir:         dir,
						CacheBytes:  1 << 20,
						CompactRuns: 2,
					}),
				})
			},
			cycle: func(t *testing.T, db *store.DB) {
				if err := db.FlushEngines(); err != nil {
					t.Fatalf("FlushEngines: %v", err)
				}
			},
		},
	}
}

func forEachEngine(t *testing.T, fn func(t *testing.T, ec engineCase)) {
	for _, ec := range engineCases() {
		t.Run(ec.name, func(t *testing.T) { fn(t, ec) })
	}
}

func TestConformanceCRUD(t *testing.T) {
	forEachEngine(t, func(t *testing.T, ec engineCase) {
		db := ec.newDB(t)
		defer db.Close()
		if err := db.CreateTable(store.TableSpec{Name: "items", Index: []string{"kind"}}); err != nil {
			t.Fatal(err)
		}
		id1, err := db.Insert("items", store.Row{"kind": "a", "price": 10})
		if err != nil {
			t.Fatal(err)
		}
		id2, err := db.Insert("items", store.Row{"kind": "b", "price": 20})
		if err != nil {
			t.Fatal(err)
		}
		if id1 != 1 || id2 != 2 {
			t.Fatalf("ids = %d, %d; want 1, 2", id1, id2)
		}
		ec.cycle(t, db) // rows cross into run files on disk

		r, err := db.Get("items", id1)
		if err != nil {
			t.Fatal(err)
		}
		if r["kind"] != "a" || r["price"] != float64(10) {
			t.Fatalf("row = %v", r)
		}
		if err := db.Update("items", id1, store.Row{"price": 15}); err != nil {
			t.Fatal(err)
		}
		ec.cycle(t, db)
		r, _ = db.Get("items", id1)
		if r["price"] != float64(15) || r["kind"] != "a" {
			t.Fatalf("after update: %v", r)
		}
		if err := db.Delete("items", id2); err != nil {
			t.Fatal(err)
		}
		ec.cycle(t, db)
		if _, err := db.Get("items", id2); !errors.Is(err, store.ErrNoRow) {
			t.Fatalf("get deleted: %v", err)
		}
		if got := db.Counts()["items"]; got != 1 {
			t.Fatalf("count = %d, want 1", got)
		}
		// A new insert must not reuse the deleted ID.
		id3, err := db.Insert("items", store.Row{"kind": "c"})
		if err != nil {
			t.Fatal(err)
		}
		if id3 != 3 {
			t.Fatalf("id3 = %d, want 3", id3)
		}
	})
}

func TestConformanceSelectAndIndexes(t *testing.T) {
	forEachEngine(t, func(t *testing.T, ec engineCase) {
		db := ec.newDB(t)
		defer db.Close()
		if err := db.CreateTable(store.TableSpec{Name: "p", Index: []string{"country"}, Unique: []string{"sku"}}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			country := "de"
			if i%2 == 0 {
				country = "us"
			}
			_, err := db.Insert("p", store.Row{"country": country, "sku": fmt.Sprintf("sku-%d", i), "price": i})
			if err != nil {
				t.Fatal(err)
			}
			if i == 25 {
				ec.cycle(t, db) // half the rows in runs, half in memtable
			}
		}
		rows, err := db.Select(store.Query{Table: "p", Eq: map[string]any{"country": "us"}})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 25 {
			t.Fatalf("indexed select: %d rows, want 25", len(rows))
		}
		// Insertion (ID) order must hold on the indexed path.
		for i := 1; i < len(rows); i++ {
			if rows[i][store.ID].(float64) <= rows[i-1][store.ID].(float64) {
				t.Fatalf("indexed select out of ID order at %d", i)
			}
		}
		// Unique point lookup.
		rows, err = db.Select(store.Query{Table: "p", Eq: map[string]any{"sku": "sku-7"}})
		if err != nil || len(rows) != 1 {
			t.Fatalf("unique select: %d rows, err %v", len(rows), err)
		}
		// Unindexed scan with range + order + limit.
		min := 10.0
		rows, err = db.Select(store.Query{
			Table:   "p",
			Num:     map[string]store.Range{"price": {Min: &min}},
			OrderBy: "price", Desc: true, Limit: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 5 || rows[0]["price"] != float64(49) {
			t.Fatalf("range select: len %d first %v", len(rows), rows[0]["price"])
		}
		// Unique violation must not land.
		if _, err := db.Insert("p", store.Row{"sku": "sku-7"}); !errors.Is(err, store.ErrDupUnique) {
			t.Fatalf("dup insert: %v", err)
		}
		if n, _ := db.Count(store.Query{Table: "p"}); n != 50 {
			t.Fatalf("count = %d, want 50", n)
		}
	})
}

func TestConformanceInsertWithIDReplay(t *testing.T) {
	forEachEngine(t, func(t *testing.T, ec engineCase) {
		db := ec.newDB(t)
		defer db.Close()
		if err := db.CreateTable(store.TableSpec{Name: "w", Unique: []string{"url"}}); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertWithID("w", 7, store.Row{"url": "http://a", "v": 1}); err != nil {
			t.Fatal(err)
		}
		ec.cycle(t, db)
		// Idempotent replay: same ID replaces, even across the flush
		// boundary, and releases the old unique key.
		if err := db.InsertWithID("w", 7, store.Row{"url": "http://b", "v": 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert("w", store.Row{"url": "http://a"}); err != nil {
			t.Fatalf("old unique key not released: %v", err)
		}
		// Conflicting replay against a different row must fail.
		if err := db.InsertWithID("w", 9, store.Row{"url": "http://b"}); !errors.Is(err, store.ErrDupUnique) {
			t.Fatalf("conflicting replay: %v", err)
		}
		// Auto-increment resumes past explicit IDs.
		id, err := db.Insert("w", store.Row{"url": "http://c"})
		if err != nil {
			t.Fatal(err)
		}
		if id <= 8 { // 8 was used by the successful Insert above
			t.Fatalf("auto id = %d, want > 8", id)
		}
	})
}

func TestConformanceScanRange(t *testing.T) {
	forEachEngine(t, func(t *testing.T, ec engineCase) {
		db := ec.newDB(t)
		defer db.Close()
		if err := db.CreateTable(store.TableSpec{Name: "s"}); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 40; i++ {
			if _, err := db.Insert("s", store.Row{"n": i}); err != nil {
				t.Fatal(err)
			}
			if i == 20 {
				ec.cycle(t, db)
			}
		}
		if err := db.Delete("s", 15); err != nil {
			t.Fatal(err)
		}
		var ids []int64
		err := db.ScanRange("s", 10, 30, func(id int64, r store.Row) bool {
			ids = append(ids, id)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 20 { // 10..30 inclusive minus deleted 15
			t.Fatalf("scan ids = %v", ids)
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("scan out of order: %v", ids)
			}
		}
		// Early stop.
		n := 0
		db.ScanRange("s", 0, 0, func(id int64, r store.Row) bool {
			n++
			return n < 5
		})
		if n != 5 {
			t.Fatalf("early stop after %d", n)
		}
	})
}

func TestConformanceCommitHookOrder(t *testing.T) {
	forEachEngine(t, func(t *testing.T, ec engineCase) {
		db := ec.newDB(t)
		defer db.Close()
		var ops []string
		db.SetCommitHook(func(call []store.Op) error {
			for _, op := range call {
				ops = append(ops, op.Kind+":"+fmt.Sprint(op.ID))
			}
			return nil
		})
		if err := db.CreateTable(store.TableSpec{Name: "h"}); err != nil {
			t.Fatal(err)
		}
		id, _ := db.Insert("h", store.Row{"x": 1})
		db.Update("h", id, store.Row{"x": 2})
		ec.cycle(t, db)
		db.Delete("h", id)
		want := "create:0,insert:1,update:1,delete:1"
		if got := strings.Join(ops, ","); got != want {
			t.Fatalf("hook ops = %s, want %s", got, want)
		}
	})
}

func TestConformanceSnapshotRoundTrip(t *testing.T) {
	forEachEngine(t, func(t *testing.T, ec engineCase) {
		src := ec.newDB(t)
		defer src.Close()
		if err := src.CreateTable(store.TableSpec{Name: "t", Index: []string{"k"}}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if _, err := src.Insert("t", store.Row{"k": fmt.Sprintf("k%d", i%3), "i": i}); err != nil {
				t.Fatal(err)
			}
			if i == 15 {
				ec.cycle(t, src)
			}
		}
		var buf strings.Builder
		if err := src.Export(&buf); err != nil {
			t.Fatal(err)
		}
		// A disk-origin snapshot must import cleanly into a RAM-only DB
		// (a foreign snapshot landing on a RAM-only deployment).
		dst := store.NewDB()
		defer dst.Close()
		if _, err := dst.Import(strings.NewReader(buf.String())); err != nil {
			t.Fatal(err)
		}
		if got := dst.Counts()["t"]; got != 30 {
			t.Fatalf("imported %d rows, want 30", got)
		}
		rows, err := dst.Select(store.Query{Table: "t", Eq: map[string]any{"k": "k1"}})
		if err != nil || len(rows) != 10 {
			t.Fatalf("imported index select: %d, %v", len(rows), err)
		}
	})
}

func TestConformanceProcs(t *testing.T) {
	forEachEngine(t, func(t *testing.T, ec engineCase) {
		db := ec.newDB(t)
		defer db.Close()
		if err := db.CreateTable(store.TableSpec{Name: "p"}); err != nil {
			t.Fatal(err)
		}
		db.RegisterProc("sum", func(d *store.DB, args json.RawMessage) (any, error) {
			total := 0.0
			err := d.ScanRange("p", 0, 0, func(id int64, r store.Row) bool {
				total += r["v"].(float64)
				return true
			})
			return total, err
		})
		for i := 1; i <= 4; i++ {
			db.Insert("p", store.Row{"v": i})
		}
		ec.cycle(t, db)
		got, err := db.CallProc("sum", nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != 10.0 {
			t.Fatalf("proc sum = %v, want 10", got)
		}
	})
}
