package diskengine

import (
	"bytes"
	"testing"

	"pricesheriff/internal/store"
)

// fuzzSeedBlocks builds representative valid pages for the corpus: the
// fuzzer mutates from structurally sound inputs instead of random noise.
func fuzzSeedBlocks() [][]byte {
	var seeds [][]byte

	// Empty block.
	seeds = append(seeds, finishBlock(nil, 0))

	// Rows only.
	var ents []byte
	ents = appendBlockEntry(ents, 1, []byte(`{"_id":1,"v":1}`), false)
	ents = appendBlockEntry(ents, 2, []byte(`{"_id":2,"url":"http://example.com","price":9.99}`), false)
	seeds = append(seeds, finishBlock(ents, 2))

	// Mixed rows and tombstones, sparse IDs.
	ents = nil
	ents = appendBlockEntry(ents, 7, []byte(`{"_id":7}`), false)
	ents = appendBlockEntry(ents, 1000, nil, true)
	ents = appendBlockEntry(ents, 123456789, []byte(`{"s":"x"}`), false)
	seeds = append(seeds, finishBlock(ents, 3))

	// Binary rows (a PSR2 run's), with a tombstone between them.
	ents = nil
	ents = appendBlockEntry(ents, 3, store.AppendRow(nil, store.Row{"_id": 3.0, "url": "http://example.com", "price": 9.99, "ok": true}), false)
	ents = appendBlockEntry(ents, 4, nil, true)
	ents = appendBlockEntry(ents, 9, store.AppendRow(nil, store.Row{"_id": 9.0, "tags": []any{"a", map[string]any{"n": nil}}}), false)
	seeds = append(seeds, finishBlock(ents, 3))

	return seeds
}

// FuzzBlockDecode hammers the page decoder: whatever the bytes, it must
// return rows or ErrCorrupt — never panic, never over-read — and a row
// entry must decode as a binary row or fail cleanly. A valid page must
// also survive a re-encode round trip.
func FuzzBlockDecode(f *testing.F) {
	for _, seed := range fuzzSeedBlocks() {
		f.Add(seed)
		// Also seed a few corruptions of each: truncation, bit flip.
		if len(seed) > 6 {
			f.Add(seed[:len(seed)-3])
			flipped := bytes.Clone(seed)
			flipped[len(flipped)/2] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ents, err := decodeBlock(data)
		if err != nil {
			return
		}
		// Decoded OK: invariants must hold, and a rebuild must decode to
		// the same entries.
		var enc []byte
		prev := int64(0)
		for _, e := range ents {
			if e.id <= prev {
				t.Fatalf("decoded ids out of order: %d after %d", e.id, prev)
			}
			prev = e.id
			if e.tomb && e.data != nil {
				t.Fatal("tombstone with data")
			}
			if !e.tomb {
				store.DecodeRow(e.data)
			}
			enc = appendBlockEntry(enc, e.id, e.data, e.tomb)
		}
		again, err := decodeBlock(finishBlock(enc, len(ents)))
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if len(again) != len(ents) {
			t.Fatalf("round trip: %d entries, want %d", len(again), len(ents))
		}
		for i := range ents {
			if again[i].id != ents[i].id || again[i].tomb != ents[i].tomb || !bytes.Equal(again[i].data, ents[i].data) {
				t.Fatalf("round trip mismatch at %d", i)
			}
		}
	})
}
