package history

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"pricesheriff/internal/store"
)

// frameRecord builds a valid frame, for seeding the fuzzer.
func frameRecord(payload []byte) []byte {
	frame := make([]byte, frameHeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeaderBytes:], payload)
	return frame
}

// FuzzWALReplay feeds arbitrary bytes to the segment replayer as a
// segment file. Whatever the input, replay must not panic, must stop at a
// sane offset, and every payload it accepts must re-frame to exactly the
// bytes it was decoded from and decode as a record or fail cleanly.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(frameRecord([]byte(`{"k":"insert","t":"requests","id":1}`)))
	f.Add(append(frameRecord(store.AppendOp(nil, store.Op{Kind: store.OpInsert, Table: "requests", ID: 1,
		Row: store.Row{"_id": 1.0, "url": "http://example.com", "price": 9.99, "ok": true, "tags": []any{"a", nil}}})),
		frameRecord(store.AppendOp(nil, store.Op{Kind: store.OpCreate, Table: "t", Spec: &store.TableSpec{Name: "t", Index: []string{"k"}}}))...))
	f.Add(append(frameRecord([]byte("a")), frameRecord([]byte("bb"))...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})    // absurd length
	f.Add(frameRecord([]byte("torn"))[:6])               // mid-header cut
	f.Add(append(frameRecord([]byte("ok")), 0x05, 0x00)) // trailing garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		var payloads [][]byte
		goodOff, torn, err := ReplaySegment(path, func(p []byte) error {
			payloads = append(payloads, append([]byte(nil), p...))
			decodeRecord(p)
			return nil
		})
		if err != nil {
			t.Fatalf("replay returned an error on pure input: %v", err)
		}
		if goodOff < 0 || goodOff > int64(len(data)) {
			t.Fatalf("goodOffset %d out of [0, %d]", goodOff, len(data))
		}
		if !torn && goodOff != int64(len(data)) {
			t.Fatalf("not torn but stopped at %d of %d", goodOff, len(data))
		}
		// The accepted prefix must re-encode byte-for-byte.
		var rebuilt []byte
		for _, p := range payloads {
			rebuilt = append(rebuilt, frameRecord(p)...)
		}
		if !bytes.Equal(rebuilt, data[:goodOff]) {
			t.Fatalf("accepted prefix does not round-trip:\n got %x\nwant %x", rebuilt, data[:goodOff])
		}
	})
}
