package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"pricesheriff/internal/transport"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	err := db.CreateTable(TableSpec{
		Name:   "products",
		Index:  []string{"domain"},
		Unique: []string{"sku"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateTableErrors(t *testing.T) {
	db := newTestDB(t)
	if err := db.CreateTable(TableSpec{Name: "products"}); err != ErrTableExists {
		t.Errorf("want ErrTableExists, got %v", err)
	}
	if err := db.CreateTable(TableSpec{}); err != ErrBadQuery {
		t.Errorf("want ErrBadQuery, got %v", err)
	}
	if got := db.Tables(); len(got) != 1 || got[0] != "products" {
		t.Errorf("tables = %v", got)
	}
}

func TestInsertGetUpdateDelete(t *testing.T) {
	db := newTestDB(t)
	id, err := db.Insert("products", Row{"domain": "shop.es", "sku": "A1", "price": 10.5})
	if err != nil {
		t.Fatal(err)
	}
	row, err := db.Get("products", id)
	if err != nil {
		t.Fatal(err)
	}
	if row["price"] != 10.5 || row["domain"] != "shop.es" {
		t.Errorf("row = %v", row)
	}
	if err := db.Update("products", id, Row{"price": 12}); err != nil {
		t.Fatal(err)
	}
	row, _ = db.Get("products", id)
	if row["price"] != float64(12) {
		t.Errorf("updated price = %v", row["price"])
	}
	if err := db.Delete("products", id); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("products", id); err != ErrNoRow {
		t.Errorf("want ErrNoRow, got %v", err)
	}
}

func TestMissingTableAndRow(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Insert("nope", Row{}); err != ErrNoTable {
		t.Error("insert")
	}
	if _, err := db.Get("nope", 1); err != ErrNoTable {
		t.Error("get")
	}
	if err := db.Update("nope", 1, Row{}); err != ErrNoTable {
		t.Error("update")
	}
	if err := db.Delete("nope", 1); err != ErrNoTable {
		t.Error("delete")
	}
	if _, err := db.Select(Query{Table: "nope"}); err != ErrNoTable {
		t.Error("select")
	}
	if err := db.Update("products", 99, Row{}); err != ErrNoRow {
		t.Error("update missing row")
	}
	if err := db.Delete("products", 99); err != ErrNoRow {
		t.Error("delete missing row")
	}
}

func TestUniqueIndex(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Insert("products", Row{"sku": "X"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("products", Row{"sku": "X"}); !errors.Is(err, ErrDupUnique) {
		t.Errorf("want ErrDupUnique, got %v", err)
	}
	id2, err := db.Insert("products", Row{"sku": "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update("products", id2, Row{"sku": "X"}); !errors.Is(err, ErrDupUnique) {
		t.Errorf("update into dup: %v", err)
	}
	// Updating to itself is fine.
	if err := db.Update("products", id2, Row{"sku": "Y"}); err != nil {
		t.Errorf("self update: %v", err)
	}
	// After delete the value is reusable.
	rows, _ := db.Select(Query{Table: "products", Eq: map[string]any{"sku": "X"}})
	if len(rows) != 1 {
		t.Fatalf("lookup by unique = %d rows", len(rows))
	}
	db.Delete("products", int64(rows[0][ID].(float64)))
	if _, err := db.Insert("products", Row{"sku": "X"}); err != nil {
		t.Errorf("reinsert after delete: %v", err)
	}
}

func TestSelectByIndexAndScan(t *testing.T) {
	db := newTestDB(t)
	for i := 0; i < 10; i++ {
		domain := "a.com"
		if i%2 == 1 {
			domain = "b.com"
		}
		if _, err := db.Insert("products", Row{"domain": domain, "sku": fmt.Sprint(i), "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Select(Query{Table: "products", Eq: map[string]any{"domain": "a.com"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Errorf("indexed select = %d rows", len(rows))
	}
	// Unindexed column forces a scan.
	rows, err = db.Select(Query{Table: "products", Eq: map[string]any{"n": 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["sku"] != "3" {
		t.Errorf("scan select = %v", rows)
	}
	// Compound: indexed + extra filter.
	rows, _ = db.Select(Query{Table: "products", Eq: map[string]any{"domain": "a.com", "n": 2}})
	if len(rows) != 1 {
		t.Errorf("compound = %d rows", len(rows))
	}
	// Limit.
	rows, _ = db.Select(Query{Table: "products", Limit: 3})
	if len(rows) != 3 {
		t.Errorf("limit = %d rows", len(rows))
	}
	n, _ := db.Count(Query{Table: "products"})
	if n != 10 {
		t.Errorf("count = %d", n)
	}
}

func TestSelectInsertionOrder(t *testing.T) {
	db := newTestDB(t)
	for i := 0; i < 5; i++ {
		db.Insert("products", Row{"sku": fmt.Sprint(i)})
	}
	db.Delete("products", 2)
	rows, _ := db.Select(Query{Table: "products"})
	want := []string{"0", "2", "3", "4"}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, w := range want {
		if rows[i]["sku"] != w {
			t.Errorf("row %d = %v, want sku %s", i, rows[i]["sku"], w)
		}
	}
}

func TestUpdateMovesIndex(t *testing.T) {
	db := newTestDB(t)
	id, _ := db.Insert("products", Row{"domain": "a.com", "sku": "s"})
	if err := db.Update("products", id, Row{"domain": "b.com"}); err != nil {
		t.Fatal(err)
	}
	rows, _ := db.Select(Query{Table: "products", Eq: map[string]any{"domain": "a.com"}})
	if len(rows) != 0 {
		t.Errorf("old index entry lingers: %v", rows)
	}
	rows, _ = db.Select(Query{Table: "products", Eq: map[string]any{"domain": "b.com"}})
	if len(rows) != 1 {
		t.Errorf("new index entry missing")
	}
}

func TestIntFloatCanonicalization(t *testing.T) {
	db := newTestDB(t)
	db.Insert("products", Row{"domain": "a.com", "sku": "s", "n": int64(7)})
	// Query with int, float64 and int64 must all match.
	for _, v := range []any{7, int64(7), float64(7)} {
		rows, _ := db.Select(Query{Table: "products", Eq: map[string]any{"n": v}})
		if len(rows) != 1 {
			t.Errorf("eq %T(%v) missed", v, v)
		}
	}
}

func TestStoredProc(t *testing.T) {
	db := newTestDB(t)
	db.RegisterProc("count_domain", func(db *DB, args json.RawMessage) (any, error) {
		var domain string
		if err := json.Unmarshal(args, &domain); err != nil {
			return nil, err
		}
		return db.Count(Query{Table: "products", Eq: map[string]any{"domain": domain}})
	})
	db.Insert("products", Row{"domain": "a.com", "sku": "1"})
	db.Insert("products", Row{"domain": "a.com", "sku": "2"})
	out, err := db.CallProc("count_domain", json.RawMessage(`"a.com"`))
	if err != nil {
		t.Fatal(err)
	}
	if out.(int) != 2 {
		t.Errorf("proc = %v", out)
	}
	if _, err := db.CallProc("nope", nil); !errors.Is(err, ErrNoProc) {
		t.Errorf("want ErrNoProc, got %v", err)
	}
}

func TestConcurrentInserts(t *testing.T) {
	db := newTestDB(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := db.Insert("products", Row{"domain": "x.com", "sku": fmt.Sprintf("%d-%d", w, i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	n, _ := db.Count(Query{Table: "products"})
	if n != 800 {
		t.Errorf("count = %d", n)
	}
}

func TestNetworkClientServer(t *testing.T) {
	netw := transport.NewInproc()
	lis, err := netw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	db.RegisterProc("ping", func(*DB, json.RawMessage) (any, error) { return "pong", nil })
	srv := NewServer(db, lis)
	go srv.Serve()
	defer srv.Close()

	cli, err := Dial(netw, srv.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.CreateTableCtx(context.Background(), TableSpec{Name: "t", Index: []string{"k"}}); err != nil {
		t.Fatal(err)
	}
	id, err := cli.InsertCtx(context.Background(), "t", Row{"k": "v", "n": 1})
	if err != nil {
		t.Fatal(err)
	}
	row, err := cli.GetCtx(context.Background(), "t", id)
	if err != nil {
		t.Fatal(err)
	}
	if row["k"] != "v" || row["n"] != float64(1) {
		t.Errorf("row = %v", row)
	}
	if err := cli.UpdateCtx(context.Background(), "t", id, Row{"n": 2}); err != nil {
		t.Fatal(err)
	}
	rows, err := cli.SelectCtx(context.Background(), Query{Table: "t", Eq: map[string]any{"k": "v"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["n"] != float64(2) {
		t.Errorf("select = %v", rows)
	}
	var pong string
	if err := cli.CallProcCtx(context.Background(), "ping", nil, &pong); err != nil || pong != "pong" {
		t.Errorf("proc over wire: %q, %v", pong, err)
	}
	if err := cli.DeleteCtx(context.Background(), "t", id); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.GetCtx(context.Background(), "t", id); err == nil || !transport.IsRemote(err) {
		t.Errorf("remote ErrNoRow expected, got %v", err)
	}
}

func TestNetworkSharedBetweenClients(t *testing.T) {
	// Two "measurement servers" sharing one database server — the paper's
	// final architecture.
	netw := transport.NewInproc()
	lis, _ := netw.Listen("")
	srv := NewServer(NewDB(), lis)
	go srv.Serve()
	defer srv.Close()

	a, err := Dial(netw, srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(netw, srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.CreateTableCtx(context.Background(), TableSpec{Name: "shared"}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.InsertCtx(context.Background(), "shared", Row{"from": "a"}); err != nil {
		t.Fatal(err)
	}
	rows, err := b.SelectCtx(context.Background(), Query{Table: "shared"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["from"] != "a" {
		t.Errorf("b sees %v", rows)
	}
}

// Property: inserted rows are always retrievable by their returned ID and
// by any indexed column value.
func TestInsertSelectProperty(t *testing.T) {
	db := newTestDB(t)
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]bool)
	f := func(domainPick uint8, price float64) bool {
		domain := fmt.Sprintf("d%d.com", domainPick%16)
		sku := fmt.Sprintf("sku-%d", rng.Int63())
		if seen[sku] {
			return true
		}
		seen[sku] = true
		id, err := db.Insert("products", Row{"domain": domain, "sku": sku, "price": price})
		if err != nil {
			return false
		}
		row, err := db.Get("products", id)
		if err != nil || row["sku"] != sku {
			return false
		}
		rows, err := db.Select(Query{Table: "products", Eq: map[string]any{"sku": sku}})
		return err == nil && len(rows) == 1 && rows[0][ID] == float64(id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	db := NewDB()
	db.CreateTable(TableSpec{Name: "t", Index: []string{"k"}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Insert("t", Row{"k": "v", "n": i}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectIndexed(b *testing.B) {
	db := NewDB()
	db.CreateTable(TableSpec{Name: "t", Index: []string{"k"}})
	for i := 0; i < 10000; i++ {
		db.Insert("t", Row{"k": fmt.Sprintf("key-%d", i%100), "n": i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.Select(Query{Table: "t", Eq: map[string]any{"k": "key-42"}})
		if err != nil || len(rows) != 100 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

func BenchmarkNetworkInsert(b *testing.B) {
	netw := transport.NewInproc()
	lis, _ := netw.Listen("")
	srv := NewServer(NewDB(), lis)
	go srv.Serve()
	defer srv.Close()
	cli, err := Dial(netw, srv.Addr(), 4)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	cli.CreateTableCtx(context.Background(), TableSpec{Name: "t"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.InsertCtx(context.Background(), "t", Row{"n": i}); err != nil {
			b.Fatal(err)
		}
	}
}

func fptr(v float64) *float64 { return &v }

func TestSelectNumericRanges(t *testing.T) {
	db := newTestDB(t)
	for i := 1; i <= 10; i++ {
		db.Insert("products", Row{"sku": fmt.Sprint(i), "price": float64(i * 10)})
	}
	rows, err := db.Select(Query{Table: "products", Num: map[string]Range{
		"price": {Min: fptr(30), Max: fptr(60)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 30,40,50,60
		t.Fatalf("rows = %d", len(rows))
	}
	// Open-ended bounds.
	rows, _ = db.Select(Query{Table: "products", Num: map[string]Range{"price": {Min: fptr(90)}}})
	if len(rows) != 2 {
		t.Errorf("min-only rows = %d", len(rows))
	}
	rows, _ = db.Select(Query{Table: "products", Num: map[string]Range{"price": {Max: fptr(10)}}})
	if len(rows) != 1 {
		t.Errorf("max-only rows = %d", len(rows))
	}
	// Range on a string column never matches.
	rows, _ = db.Select(Query{Table: "products", Num: map[string]Range{"sku": {Min: fptr(0)}}})
	if len(rows) != 0 {
		t.Errorf("string-column range rows = %d", len(rows))
	}
}

func TestSelectOrderByAndLimit(t *testing.T) {
	db := newTestDB(t)
	prices := []float64{30, 10, 20, 50, 40}
	for i, p := range prices {
		db.Insert("products", Row{"sku": fmt.Sprint(i), "price": p})
	}
	rows, err := db.Select(Query{Table: "products", OrderBy: "price"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i]["price"].(float64) < rows[i-1]["price"].(float64) {
			t.Fatalf("not sorted: %v", rows)
		}
	}
	// Descending with limit: the top 2 prices.
	rows, _ = db.Select(Query{Table: "products", OrderBy: "price", Desc: true, Limit: 2})
	if len(rows) != 2 || rows[0]["price"] != float64(50) || rows[1]["price"] != float64(40) {
		t.Errorf("top-2 = %v", rows)
	}
	// Ordering by a string column.
	rows, _ = db.Select(Query{Table: "products", OrderBy: "sku", Desc: true, Limit: 1})
	if len(rows) != 1 || rows[0]["sku"] != "4" {
		t.Errorf("string order = %v", rows)
	}
}

func TestSelectRangeOverWire(t *testing.T) {
	netw := transport.NewInproc()
	lis, _ := netw.Listen("")
	srv := NewServer(NewDB(), lis)
	go srv.Serve()
	defer srv.Close()
	cli, err := Dial(netw, srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.CreateTableCtx(context.Background(), TableSpec{Name: "t"})
	for i := 0; i < 5; i++ {
		cli.InsertCtx(context.Background(), "t", Row{"n": i})
	}
	rows, err := cli.SelectCtx(context.Background(), Query{Table: "t", Num: map[string]Range{"n": {Min: fptr(2)}}, OrderBy: "n", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0]["n"] != float64(4) {
		t.Errorf("wire range query = %v", rows)
	}
}
