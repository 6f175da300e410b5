//go:build !race

// Allocation-regression test for the server side of a batched insert.
// Excluded under -race: the race runtime's bookkeeping breaks
// AllocsPerRun counts.

package store

import (
	"testing"

	"pricesheriff/internal/transport"
)

// TestInsertBatchDecodedOneMapPerRow: storing a decoded insert_batch frame
// allocates what decoding it allocates, plus what the table needs per row
// (ID column value, index postings) — not a second and a third map per row.
// A 17-column map is three allocations; the bound leaves no room for one.
func TestInsertBatchDecodedOneMapPerRow(t *testing.T) {
	const n = 35
	frame := (&insertBatchReq{Table: "responses", Rows: responseRows(n)}).AppendWire(nil)
	decode := testing.AllocsPerRun(50, func() {
		var req insertBatchReq
		if err := req.DecodeWire(transport.NewWireDec(frame)); err != nil {
			t.Fatal(err)
		}
	})
	db := NewDB()
	db.CreateTable(TableSpec{Name: "responses", Index: []string{"job_id"}})
	stored := testing.AllocsPerRun(50, func() {
		if err := insertBatchFrame(db, frame); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decode %.0f allocs, decode+store %.0f allocs for %d rows", decode, stored, n)
	if perRow := (stored - decode) / n; perRow > 3 {
		t.Errorf("storing a decoded row allocates %.1f times on top of decoding it, want <= 3 (a map copy is three more)", perRow)
	}
}
