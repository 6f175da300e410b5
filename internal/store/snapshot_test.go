package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"pricesheriff/internal/transport"
)

func TestExportImportRoundTrip(t *testing.T) {
	src := NewDB()
	src.CreateTable(TableSpec{Name: "requests", Unique: []string{"job_id"}})
	src.CreateTable(TableSpec{Name: "responses", Index: []string{"job_id"}})
	src.Insert("requests", Row{"job_id": "j1", "domain": "a.com"})
	src.Insert("responses", Row{"job_id": "j1", "price": 10.5})
	src.Insert("responses", Row{"job_id": "j1", "price": 11.5})
	// A deleted row must not survive the round trip.
	id, _ := src.Insert("responses", Row{"job_id": "j1", "price": 99.0})
	src.Delete("responses", id)

	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}

	dst := NewDB()
	if _, err := dst.Import(&buf); err != nil {
		t.Fatal(err)
	}
	reqs, _ := dst.Select(Query{Table: "requests"})
	resps, _ := dst.Select(Query{Table: "responses"})
	if len(reqs) != 1 || len(resps) != 2 {
		t.Fatalf("imported rows: requests=%d responses=%d", len(reqs), len(resps))
	}
	// Indexes are rebuilt on import.
	byJob, err := dst.Select(Query{Table: "responses", Eq: map[string]any{"job_id": "j1"}})
	if err != nil || len(byJob) != 2 {
		t.Errorf("index after import: %d rows, %v", len(byJob), err)
	}
	// Unique constraints too.
	if _, err := dst.Insert("requests", Row{"job_id": "j1"}); err == nil {
		t.Error("unique index not rebuilt")
	}
}

func TestImportRequiresEmptyDB(t *testing.T) {
	db := NewDB()
	db.CreateTable(TableSpec{Name: "t"})
	if _, err := db.Import(strings.NewReader(`{"tables":[]}`)); err == nil {
		t.Error("non-empty import accepted")
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	if _, err := NewDB().Import(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestExportDeterministicTableOrder(t *testing.T) {
	db := NewDB()
	db.CreateTable(TableSpec{Name: "zeta"})
	db.CreateTable(TableSpec{Name: "alpha"})
	var a, b bytes.Buffer
	db.Export(&a)
	db.Export(&b)
	if a.String() != b.String() {
		t.Error("export not deterministic")
	}
	if strings.Index(a.String(), "alpha") > strings.Index(a.String(), "zeta") {
		t.Error("tables not sorted")
	}
}

func TestExportOverWire(t *testing.T) {
	netw := transport.NewInproc()
	lis, _ := netw.Listen("")
	db := NewDB()
	db.CreateTable(TableSpec{Name: "t", Index: []string{"k"}})
	db.Insert("t", Row{"k": "v", "n": 7})
	srv := NewServer(db, lis)
	go srv.Serve()
	defer srv.Close()

	cli, err := Dial(netw, srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	snap, err := cli.ExportCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Tables) != 1 || snap.Tables[0].Spec.Name != "t" || len(snap.Tables[0].Rows) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// The snapshot loads into a fresh engine.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	restored := NewDB()
	if _, err := restored.Import(&buf); err != nil {
		t.Fatal(err)
	}
	rows, _ := restored.Select(Query{Table: "t", Eq: map[string]any{"k": "v"}})
	if len(rows) != 1 || rows[0]["n"] != float64(7) {
		t.Errorf("restored rows = %v", rows)
	}
}

func TestImportReturnsIDMapping(t *testing.T) {
	src := NewDB()
	src.CreateTable(TableSpec{Name: "requests"})
	src.CreateTable(TableSpec{Name: "responses"})
	// Burn a few IDs so old and new assignments diverge.
	burn, _ := src.Insert("requests", Row{"tmp": true})
	src.Delete("requests", burn)
	reqID, _ := src.Insert("requests", Row{"job_id": "j1"})
	src.Insert("responses", Row{"request_id": reqID, "price": 10.0})

	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewDB()
	idmap, err := dst.Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	newReq, ok := idmap["requests"][reqID]
	if !ok {
		t.Fatalf("no mapping for requests id %d: %v", reqID, idmap)
	}
	if newReq == reqID {
		t.Fatalf("expected reassigned ID, got identical %d", newReq)
	}
	// The caller can fix up the join with the mapping.
	resps, _ := dst.Select(Query{Table: "responses"})
	old := int64(resps[0]["request_id"].(float64))
	fixed := idmap["requests"][old]
	if _, err := dst.Get("requests", fixed); err != nil {
		t.Errorf("remapped join target missing: %v", err)
	}
}

func TestImportReplayPreservesIDs(t *testing.T) {
	src := NewDB()
	src.CreateTable(TableSpec{Name: "requests", Unique: []string{"job_id"}})
	src.CreateTable(TableSpec{Name: "responses", Index: []string{"request_id"}})
	burn, _ := src.Insert("requests", Row{"tmp": true})
	src.Delete("requests", burn)
	reqID, _ := src.Insert("requests", Row{"job_id": "j9"})
	src.Insert("responses", Row{"request_id": reqID})

	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewDB()
	if err := dst.ImportReplay(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := dst.Get("requests", reqID)
	if err != nil || r["job_id"] != "j9" {
		t.Fatalf("row under original id %d: %v %v", reqID, r, err)
	}
	// The join still works without any fixup.
	resps, _ := dst.Select(Query{Table: "responses", Eq: map[string]any{"request_id": reqID}})
	if len(resps) != 1 {
		t.Errorf("join broken after replay: %d rows", len(resps))
	}
	// New inserts never collide with replayed IDs.
	next, _ := dst.Insert("requests", Row{"job_id": "j10"})
	if next <= reqID {
		t.Errorf("nextID not advanced past replayed ids: %d <= %d", next, reqID)
	}
	// Replay is idempotent: re-applying the same snapshot is a no-op.
	var buf2 bytes.Buffer
	src.Export(&buf2)
	if err := dst.ImportReplay(&buf2); err != nil {
		t.Fatal(err)
	}
	rows, _ := dst.Select(Query{Table: "requests"})
	if len(rows) != 2 {
		t.Errorf("idempotent replay duplicated rows: %d", len(rows))
	}
}

func TestImportMergeIntoNonEmpty(t *testing.T) {
	live := NewDB()
	live.CreateTable(TableSpec{Name: "requests"})
	live.Insert("requests", Row{"job_id": "existing"})

	src := NewDB()
	src.CreateTable(TableSpec{Name: "requests"})
	src.CreateTable(TableSpec{Name: "extra"})
	src.Insert("requests", Row{"job_id": "imported"})
	src.Insert("extra", Row{"x": 1})
	var buf bytes.Buffer
	src.Export(&buf)

	idmap, err := live.ImportMerge(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := live.Select(Query{Table: "requests"})
	if len(rows) != 2 {
		t.Fatalf("merge lost rows: %d", len(rows))
	}
	if len(idmap["requests"]) != 1 || len(idmap["extra"]) != 1 {
		t.Errorf("idmap = %v", idmap)
	}
}

func TestImportMergeRejectedLeavesDBUntouched(t *testing.T) {
	live := NewDB()
	live.CreateTable(TableSpec{Name: "requests", Unique: []string{"job_id"}})
	live.Insert("requests", Row{"job_id": "taken"})

	// "points" sorts before "requests" in the snapshot, so without the
	// up-front check it would be applied before the violation aborts.
	src := NewDB()
	src.CreateTable(TableSpec{Name: "points"})
	src.CreateTable(TableSpec{Name: "requests", Unique: []string{"job_id"}})
	src.Insert("points", Row{"price": 10.0})
	src.Insert("requests", Row{"job_id": "taken"})
	var buf bytes.Buffer
	src.Export(&buf)

	if _, err := live.ImportMerge(&buf); !errors.Is(err, ErrDupUnique) {
		t.Fatalf("merge err = %v, want ErrDupUnique", err)
	}
	if _, err := live.Select(Query{Table: "points"}); err != ErrNoTable {
		t.Fatalf("rejected merge still created tables: %v", err)
	}
	rows, _ := live.Select(Query{Table: "requests"})
	if len(rows) != 1 {
		t.Fatalf("rejected merge changed requests: %d rows", len(rows))
	}

	// A snapshot that collides only with itself is rejected too.
	src2 := NewDB()
	src2.CreateTable(TableSpec{Name: "users", Unique: []string{"name"}})
	src2.Insert("users", Row{"name": "a"})
	dup := NewDB()
	dup.CreateTable(TableSpec{Name: "users", Unique: []string{"name"}})
	dup.Insert("users", Row{"name": "a"})
	var buf2 bytes.Buffer
	src2.Export(&buf2)
	var snap, snap2 Snapshot
	json.Unmarshal(buf2.Bytes(), &snap)
	json.Unmarshal(buf2.Bytes(), &snap2)
	snap.Tables[0].Rows = append(snap.Tables[0].Rows, snap2.Tables[0].Rows...)
	merged, _ := json.Marshal(snap)
	if _, err := live.ImportMerge(bytes.NewReader(merged)); !errors.Is(err, ErrDupUnique) {
		t.Fatalf("self-colliding snapshot: err = %v, want ErrDupUnique", err)
	}
}

func TestCommitHookObservesMutationsInOrder(t *testing.T) {
	db := NewDB()
	var ops []Op
	db.SetCommitHook(func(call []Op) error {
		for _, op := range call {
			op.Row = copyRow(op.Row) // the hook may not keep the stored row
			ops = append(ops, op)
		}
		return nil
	})
	db.CreateTable(TableSpec{Name: "t", Index: []string{"k"}})
	id, _ := db.Insert("t", Row{"k": "v"})
	db.Update("t", id, Row{"k": "w"})
	db.Delete("t", id)
	db.SetCommitHook(nil)
	db.Insert("t", Row{"k": "silent"})

	kinds := make([]string, len(ops))
	for i, op := range ops {
		kinds[i] = op.Kind
	}
	want := []string{OpCreate, OpInsert, OpUpdate, OpDelete}
	if len(kinds) != len(want) {
		t.Fatalf("ops = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("ops = %v, want %v", kinds, want)
		}
	}
	if ops[1].ID != id || ops[1].Row["k"] != "v" || ops[1].Row[ID] != float64(id) {
		t.Errorf("insert op = %+v", ops[1])
	}
	if ops[0].Spec == nil || ops[0].Spec.Name != "t" {
		t.Errorf("create op = %+v", ops[0])
	}
}

func TestInsertWithIDReplaceAndConflict(t *testing.T) {
	db := NewDB()
	db.CreateTable(TableSpec{Name: "t", Unique: []string{"u"}, Index: []string{"k"}})
	if err := db.InsertWithID("t", 7, Row{"u": "a", "k": "x"}); err != nil {
		t.Fatal(err)
	}
	// Same ID replaces (idempotent replay of a newer value).
	if err := db.InsertWithID("t", 7, Row{"u": "a", "k": "y"}); err != nil {
		t.Fatal(err)
	}
	rows, _ := db.Select(Query{Table: "t", Eq: map[string]any{"k": "y"}})
	if len(rows) != 1 {
		t.Fatalf("replace left index stale: %v", rows)
	}
	if old, _ := db.Select(Query{Table: "t", Eq: map[string]any{"k": "x"}}); len(old) != 0 {
		t.Errorf("stale index entry for replaced row: %v", old)
	}
	// A unique conflict against a different row still errors.
	if err := db.InsertWithID("t", 8, Row{"u": "a"}); err == nil {
		t.Error("unique violation accepted")
	}
}
