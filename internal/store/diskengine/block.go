// Package diskengine is the disk-resident storage engine behind the
// store.Engine seam: an SSTable+memtable LSM whose redo log is the
// existing internal/history WAL. Writes land in a RAM memtable and are
// made durable by the WAL above; Flush (driven by the checkpoint cycle)
// spills the memtable into an immutable sorted run file, and a full-merge
// compaction folds runs together once they pile up. Reads go memtable
// first, then runs newest to oldest, through a shared byte-budgeted block
// cache. A manifest names the live run files so a crash between writing
// a run and retiring its predecessors can never resurrect deleted rows.
package diskengine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Block layout (the page format — see FuzzBlockDecode):
//
//	uvarint entryCount
//	entryCount × entry:
//	    byte   kind (0 = row, 1 = tombstone)
//	    uvarint id
//	    row only: uvarint len, then len bytes of row (store.AppendRow;
//	    JSON in a PSR1 run, see run.go)
//	uint32 big-endian CRC32 (IEEE) of everything before it
//
// Entries are sorted by strictly ascending ID. Blocks target
// blockTargetBytes of payload before the builder cuts a new one.
const (
	kindRow       = 0
	kindTombstone = 1

	blockTargetBytes = 32 << 10

	// maxBlockEntries bounds decode allocation against corrupt or
	// adversarial headers claiming absurd entry counts.
	maxBlockEntries = 1 << 20
)

// ErrCorrupt reports a page that failed structural or checksum
// validation.
var ErrCorrupt = errors.New("diskengine: corrupt block")

// blockEntry is one decoded page entry. Data is the row's encoded bytes
// (nil for tombstones), aliasing the decoded buffer — callers must not
// mutate it.
type blockEntry struct {
	id   int64
	data []byte
	tomb bool
}

// appendBlockEntry encodes one entry onto buf.
func appendBlockEntry(buf []byte, id int64, data []byte, tomb bool) []byte {
	if tomb {
		buf = append(buf, kindTombstone)
		return binary.AppendUvarint(buf, uint64(id))
	}
	buf = append(buf, kindRow)
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = binary.AppendUvarint(buf, uint64(len(data)))
	return append(buf, data...)
}

// finishBlock prefixes the entry payload with its count and suffixes the
// CRC, returning the complete page.
func finishBlock(entries []byte, count int) []byte {
	out := binary.AppendUvarint(make([]byte, 0, len(entries)+8), uint64(count))
	out = append(out, entries...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// decodeBlock parses and validates one page. The returned entries alias
// data. It must never panic on arbitrary input — corruption (truncation,
// bit rot, adversarial bytes) comes back as ErrCorrupt.
func decodeBlock(data []byte) ([]blockEntry, error) {
	if len(data) < 5 { // shortest block: count byte + CRC
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	count, n := binary.Uvarint(body)
	if n <= 0 || count > maxBlockEntries {
		return nil, fmt.Errorf("%w: bad entry count", ErrCorrupt)
	}
	body = body[n:]
	entries := make([]blockEntry, 0, count)
	prevID := int64(0)
	for i := uint64(0); i < count; i++ {
		if len(body) == 0 {
			return nil, fmt.Errorf("%w: truncated entry", ErrCorrupt)
		}
		kind := body[0]
		body = body[1:]
		id64, n := binary.Uvarint(body)
		if n <= 0 || id64 == 0 || id64 > uint64(1)<<62 {
			return nil, fmt.Errorf("%w: bad id", ErrCorrupt)
		}
		body = body[n:]
		id := int64(id64)
		if id <= prevID {
			return nil, fmt.Errorf("%w: ids out of order", ErrCorrupt)
		}
		prevID = id
		switch kind {
		case kindTombstone:
			entries = append(entries, blockEntry{id: id, tomb: true})
		case kindRow:
			size, n := binary.Uvarint(body)
			if n <= 0 || size > uint64(len(body)-n) {
				return nil, fmt.Errorf("%w: bad row length", ErrCorrupt)
			}
			body = body[n:]
			entries = append(entries, blockEntry{id: id, data: body[:size]})
			body = body[size:]
		default:
			return nil, fmt.Errorf("%w: unknown entry kind %d", ErrCorrupt, kind)
		}
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body))
	}
	return entries, nil
}
