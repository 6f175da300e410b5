//go:build !race

// Allocation pin for the durable write path. Excluded under -race: the
// race runtime's bookkeeping breaks AllocsPerRun counts.

package history

import (
	"testing"

	"pricesheriff/internal/store"
)

// TestPersistedInsertBatchAllocs: logging a 10-row InsertBatch — encode
// ten records, frame them, one write — allocates at most 4 objects more
// than the same InsertBatch on a DB with no log.
func TestPersistedInsertBatchAllocs(t *testing.T) {
	rows := wideRows(10)
	plain := store.NewDB()
	if err := plain.CreateTable(testSpec); err != nil {
		t.Fatal(err)
	}
	durable, p := openPersisted(t, t.TempDir(), Options{WAL: WALOptions{Fsync: FsyncOff}})
	defer p.Close()
	if err := durable.CreateTable(testSpec); err != nil {
		t.Fatal(err)
	}
	measure := func(db *store.DB) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := db.InsertBatch(testSpec.Name, rows); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, logged := measure(plain), measure(durable)
	t.Logf("InsertBatch of %d rows: %.1f allocs unlogged, %.1f logged", len(rows), base, logged)
	if logged > base+4 {
		t.Errorf("a logged InsertBatch allocates %.1f objects, want <= %.1f (unlogged + 4)", logged, base+4)
	}
}
