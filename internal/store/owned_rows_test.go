package store

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pricesheriff/internal/transport"
)

// responseRows builds n rows shaped like the measurement server's response
// rows: sixteen columns, one of them an integer the wire turns into a
// float64.
func responseRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			"job_id": "job-1", "request_id": int64(65536), "domain": "shop-0007.com",
			"source": fmt.Sprintf("ipc-%02d", i), "kind": "ipc", "peer_id": fmt.Sprintf("ipc-%02d", i),
			"country": "ES", "city": "Madrid", "original": "EUR 654.00", "currency": "EUR",
			"amount": 654.0, "converted": 654.0, "confidence": "high", "mode": "", "err": "",
			"html_diff": `["=12","-1","+<span class=\"price\">EUR 654.00</span>","=14"]`,
		}
	}
	return rows
}

func mapPtr(r Row) uintptr { return reflect.ValueOf(r).Pointer() }

// TestServerStoresDecodedRow: a row that arrives in an insert or
// insert_batch frame is decoded into one map, and that map is what the
// engine stores and what the commit hook is shown — not a normalized copy
// of it and a hook copy of that.
func TestServerStoresDecodedRow(t *testing.T) {
	netw := transport.NewInproc()
	lis, _ := netw.Listen("")
	db := NewDB()
	srv := NewServer(db, lis)
	go srv.Serve()
	defer srv.Close()
	cli, err := Dial(netw, srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.CreateTableCtx(context.Background(), TableSpec{Name: "responses", Index: []string{"job_id"}}); err != nil {
		t.Fatal(err)
	}
	hooked := map[int64]uintptr{}
	db.SetCommitHook(func(ops []Op) error {
		for _, op := range ops {
			hooked[op.ID] = mapPtr(op.Row)
		}
		return nil
	})

	rows := responseRows(5)
	ids, err := cli.InsertBatchCtx(context.Background(), "responses", rows[:4])
	if err != nil {
		t.Fatal(err)
	}
	one, err := cli.InsertCtx(context.Background(), "responses", rows[4])
	if err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	for i, id := range append(ids, one) {
		stored, ok, _ := db.tables["responses"].eng.Get(id)
		if !ok {
			t.Fatalf("row %d not stored", id)
		}
		if hooked[id] != mapPtr(stored) {
			t.Errorf("row %d: the commit hook was shown a copy, not the stored row", id)
		}
		if got := stored["request_id"]; got != float64(65536) {
			t.Errorf("row %d: request_id stored as %T(%v), want float64", id, got, got)
		}
		if stored[ID] != float64(id) || len(stored) != len(rows[i])+1 {
			t.Errorf("row %d stored as %v", id, stored)
		}
	}
}

// TestInsertCopiesCallerRow: in-process callers keep their maps. Insert and
// InsertBatch store a copy, so the caller's row gains no ID column and
// later changes to it do not reach the table.
func TestInsertCopiesCallerRow(t *testing.T) {
	db := NewDB()
	db.CreateTable(TableSpec{Name: "t", Index: []string{"k"}})
	a, b := Row{"k": "a", "n": 1}, Row{"k": "b", "n": 2}
	id, err := db.Insert("t", a)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := db.InsertBatch("t", []Row{b})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Row{a, b} {
		if _, has := r[ID]; has || len(r) != 2 {
			t.Errorf("caller's row changed by the insert: %v", r)
		}
		r["k"] = "changed"
	}
	if a["n"] != 1 {
		t.Errorf("caller's int was coerced in place: %T", a["n"])
	}
	for _, want := range []struct {
		id int64
		k  string
	}{{id, "a"}, {ids[0], "b"}} {
		got, err := db.Get("t", want.id)
		if err != nil || got["k"] != want.k {
			t.Errorf("row %d = %v (%v), want k=%s", want.id, got, err, want.k)
		}
	}
	if rows, _ := db.Select(Query{Table: "t", Eq: map[string]any{"k": "changed"}}); len(rows) != 0 {
		t.Errorf("caller's later change reached the table: %v", rows)
	}
}

// BenchmarkInsertBatchDecoded is the store server's side of a check's one
// insert_batch: decode the frame of 35 response rows and store them.
func BenchmarkInsertBatchDecoded(b *testing.B) {
	frame := (&insertBatchReq{Table: "responses", Rows: responseRows(35)}).AppendWire(nil)
	var db *DB
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%512 == 0 { // keep the table, and the benchmark's heap, small
			b.StopTimer()
			db = NewDB()
			db.CreateTable(TableSpec{Name: "responses", Index: []string{"job_id"}})
			b.StartTimer()
		}
		if err := insertBatchFrame(db, frame); err != nil {
			b.Fatal(err)
		}
	}
}

// insertBatchFrame does what the insert_batch handler does with a binary
// request body.
func insertBatchFrame(db *DB, frame []byte) error {
	var req insertBatchReq
	if err := req.DecodeWire(transport.NewWireDec(frame)); err != nil {
		return err
	}
	_, err := db.insertBatch(req.Table, req.Rows)
	return err
}
