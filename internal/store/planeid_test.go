package store_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pricesheriff/internal/store"
	"pricesheriff/internal/store/diskengine"
	"pricesheriff/internal/transport"
)

// TestPlaneEnginesNeverMintTheSameID interleaves 10^5 inserts, row moves
// (import on one engine, delete on the other) and restarts across two
// engines of one plane — a RAM engine recovering from checkpoints, a disk
// engine reopening its files — and checks that no ID is ever minted
// twice, that each engine's IDs only grow, and that a moved row keeps
// the ID it was minted under.
func TestPlaneEnginesNeverMintTheSameID(t *testing.T) {
	spec := store.TableSpec{Name: "t", Unique: []string{"job"}}
	dir := t.TempDir()
	open := []func() *store.DB{
		func() *store.DB {
			db, err := store.NewPlaneDB(1, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
		func() *store.DB {
			db, err := store.NewPlaneDB(2, store.Options{
				DefaultEngine: store.EngineDisk,
				DiskFactory:   diskengine.NewFactory(diskengine.Options{Dir: dir, CacheBytes: 1 << 20}),
			})
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
	}
	dbs := make([]*store.DB, len(open))
	for i := range dbs {
		dbs[i] = open[i]()
		if err := dbs[i].CreateTable(spec); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, db := range dbs {
			db.Close()
		}
	}()
	restart := func(i int) {
		t.Helper()
		var checkpoint bytes.Buffer
		if err := dbs[i].ExportCheckpoint(&checkpoint); err != nil {
			t.Fatal(err)
		}
		if err := dbs[i].FlushEngines(); err != nil {
			t.Fatal(err)
		}
		if err := dbs[i].Close(); err != nil {
			t.Fatal(err)
		}
		dbs[i] = open[i]()
		if err := dbs[i].ImportReplay(&checkpoint); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(16))
	minted := map[int64]int{} // ID → engine that minted it
	last := make([]int64, len(dbs))
	live := make([][]int64, len(dbs)) // IDs currently stored on each engine
	const ops = 100_000
	for n := 0; n < ops; n++ {
		i := rng.Intn(len(dbs))
		switch op := rng.Intn(10_000); {
		case op < 7_000: // mint
			id, err := dbs[i].Insert("t", store.Row{"job": fmt.Sprintf("j%d", n)})
			if err != nil {
				t.Fatal(err)
			}
			if by, dup := minted[id]; dup {
				t.Fatalf("op %d: engine %d minted ID %d, already minted by engine %d", n, i, id, by)
			}
			if id <= last[i] {
				t.Fatalf("op %d: engine %d minted %d after %d", n, i, id, last[i])
			}
			minted[id], last[i] = i, id
			live[i] = append(live[i], id)
		case op < 9_996: // move the engine's newest row to the other engine
			if len(live[i]) == 0 {
				continue
			}
			id := live[i][len(live[i])-1]
			live[i] = live[i][:len(live[i])-1]
			row, err := dbs[i].Get("t", id)
			if err != nil {
				t.Fatal(err)
			}
			o := 1 - i
			if n, err := dbs[o].ImportRows("t", []store.Row{row}); err != nil || n != 1 {
				t.Fatalf("import %d: stored %d, %v", id, n, err)
			}
			if n, err := dbs[o].ImportRows("t", []store.Row{{store.ID: id, "job": "impostor"}}); err != nil || n != 0 {
				t.Fatalf("second import of %d: stored %d, %v — an occupied ID must be left alone", id, n, err)
			}
			if err := dbs[i].Delete("t", id); err != nil {
				t.Fatal(err)
			}
			moved, err := dbs[o].Get("t", id)
			if err != nil || moved["job"] != row["job"] {
				t.Fatalf("row %d after its move: %v, %v", id, moved, err)
			}
			live[o] = append(live[o], id)
		default: // crash-free restart; the moved-away maximum must stay spent
			restart(i)
		}
	}
	if len(minted) < ops/2 {
		t.Fatalf("only %d IDs minted", len(minted))
	}
}

// TestIDFieldsExhaustLoudly: neither half of an ID wraps. An ordinal the
// format cannot hold is refused at construction, and a table whose
// sequence is spent refuses inserts — single, batched, and by explicit ID
// — while everything already stored stays readable.
func TestIDFieldsExhaustLoudly(t *testing.T) {
	for _, ordinal := range []int{-1, store.MaxOrdinal + 1} {
		if _, err := store.NewPlaneDB(ordinal, store.Options{}); err == nil {
			t.Errorf("NewPlaneDB(%d) succeeded", ordinal)
		}
	}
	const top = 1<<53 - 1 // the largest integer a float64 row value holds exactly
	plane, err := store.NewPlaneDB(store.MaxOrdinal, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*store.DB{"standalone": store.NewDB(), "plane": plane} {
		if err := db.CreateTable(store.TableSpec{Name: "t"}); err != nil {
			t.Fatal(err)
		}
		first, err := db.Insert("t", store.Row{"n": 0})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.InsertWithID("t", top+1, store.Row{"n": 1}); err == nil {
			t.Errorf("%s: InsertWithID above 2^53 succeeded", name)
		}
		// The last ID of the format: after it the sequence has nowhere to go.
		if err := db.InsertWithID("t", top, store.Row{"n": 2}); err != nil {
			t.Fatalf("%s: InsertWithID(2^53-1): %v", name, err)
		}
		if _, err := db.Insert("t", store.Row{"n": 3}); !errors.Is(err, store.ErrIDExhausted) {
			t.Errorf("%s: insert into a spent table: %v, want ErrIDExhausted", name, err)
		}
		if _, err := db.InsertBatch("t", []store.Row{{"n": 4}, {"n": 5}}); !errors.Is(err, store.ErrIDExhausted) {
			t.Errorf("%s: batch into a spent table: %v, want ErrIDExhausted", name, err)
		}
		if got := db.Counts()["t"]; got != 2 {
			t.Errorf("%s: %d rows after refused inserts, want 2", name, got)
		}
		if _, err := db.Get("t", first); err != nil {
			t.Errorf("%s: first row unreadable after exhaustion: %v", name, err)
		}
	}
}

// TestPlaneIDLayout pins the format DESIGN.md states: a standalone DB
// mints 1, 2, 3; a plane engine mints sequence·2^16 + ordinal.
func TestPlaneIDLayout(t *testing.T) {
	plane, err := store.NewPlaneDB(7, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		db   *store.DB
		want []int64
	}{
		{store.NewDB(), []int64{1, 2, 3}},
		{plane, []int64{1<<16 + 7, 2<<16 + 7, 3<<16 + 7}},
	} {
		if err := c.db.CreateTable(store.TableSpec{Name: "t"}); err != nil {
			t.Fatal(err)
		}
		for i, want := range c.want {
			id, err := c.db.Insert("t", store.Row{"i": i})
			if err != nil || id != want {
				t.Fatalf("insert %d: ID %d, %v; want %d", i, id, err, want)
			}
			if c.db == plane && store.Seq(id) != int64(i+1) {
				t.Fatalf("Seq(%d) = %d, want %d", id, store.Seq(id), i+1)
			}
		}
	}
}

// TestStoreErrorsKeepIdentityOverRPC: each sentinel a caller branches on
// matches with errors.Is after a round trip through a real server and
// client, and matches nothing else.
func TestStoreErrorsKeepIdentityOverRPC(t *testing.T) {
	netw := transport.NewInproc()
	lis, err := netw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv := store.NewServer(store.NewDB(), lis)
	go srv.Serve()
	defer srv.Close()
	cli, err := store.Dial(netw, srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	spec := store.TableSpec{Name: "t", Unique: []string{"k"}}
	if err := cli.CreateTableCtx(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.InsertCtx(ctx, "t", store.Row{"k": "a"}); err != nil {
		t.Fatal(err)
	}
	_, dupErr := cli.InsertCtx(ctx, "t", store.Row{"k": "a"})
	_, batchDupErr := cli.InsertBatchCtx(ctx, "t", []store.Row{{"k": "b"}, {"k": "b"}})
	_, importDupErr := cli.ImportRowsCtx(ctx, "t", []byte(`[{"_id":99,"k":"a"}]`))
	_, rowErr := cli.GetCtx(ctx, "t", 404)
	_, tableErr := cli.SelectCtx(ctx, store.Query{Table: "nope"})
	sentinels := []error{store.ErrDupUnique, store.ErrNoRow, store.ErrNoTable, store.ErrTableExists}
	for _, c := range []struct {
		name      string
		got, want error
	}{
		{"insert duplicate", dupErr, store.ErrDupUnique},
		{"batch duplicate", batchDupErr, store.ErrDupUnique},
		{"import duplicate", importDupErr, store.ErrDupUnique},
		{"get missing row", rowErr, store.ErrNoRow},
		{"update missing row", cli.UpdateCtx(ctx, "t", 404, store.Row{"k": "z"}), store.ErrNoRow},
		{"delete missing row", cli.DeleteCtx(ctx, "t", 404), store.ErrNoRow},
		{"select missing table", tableErr, store.ErrNoTable},
		{"create existing table", cli.CreateTableCtx(ctx, spec), store.ErrTableExists},
	} {
		if !transport.IsRemote(c.got) {
			t.Errorf("%s: %v did not cross the wire", c.name, c.got)
		}
		for _, s := range sentinels {
			if got, want := errors.Is(c.got, s), s == c.want; got != want {
				t.Errorf("%s: errors.Is(%v, %v) = %v, want %v", c.name, c.got, s, got, want)
			}
		}
	}
}
