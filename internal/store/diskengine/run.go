package diskengine

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"pricesheriff/internal/store"
)

// Run file layout:
//
//	[block 0][block 1]…[block N-1]
//	index:  uvarint blockCount, then per block
//	        uvarint firstID, uvarint lastID, uvarint offset, uvarint length
//	        uint32 big-endian CRC32 of the index bytes before it
//	footer: uint64 BE indexOffset, uint32 BE indexLen, uint32 BE magic
//
// Blocks hold strictly ascending IDs; block ranges never overlap. The
// index is small (two IDs and two offsets per ~32 KiB of rows) and lives
// in memory for every open run; only blocks go through the cache.
//
// The magic names the row encoding: a PSR2 run's rows are store.AppendRow
// bytes, and every run is written so. A PSR1 run, written by builds
// before the binary row, holds JSON rows; it is read, and the next Flush
// merges it away (Engine.Flush).
const (
	runMagic      = 0x50535232 // "PSR2"
	runMagicJSON  = 0x50535231 // "PSR1", read only
	runFooterSize = 16
)

// blockMeta is one index entry: the ID span a block covers and where its
// bytes live.
type blockMeta struct {
	firstID, lastID int64
	offset          int64
	length          int64
}

// runWriter builds a run file from an ID-ordered entry stream.
type runWriter struct {
	f       *os.File
	w       *bufio.Writer
	off     int64
	cur     []byte // current block's encoded entries
	curN    int
	firstID int64
	lastID  int64
	index   []blockMeta
}

func newRunWriter(f *os.File) *runWriter {
	return &runWriter{f: f, w: bufio.NewWriterSize(f, 256<<10)}
}

// add appends one entry; entries must arrive in strictly ascending ID
// order.
func (rw *runWriter) add(id int64, data []byte, tomb bool) error {
	if rw.curN == 0 {
		rw.firstID = id
	}
	rw.cur = appendBlockEntry(rw.cur, id, data, tomb)
	rw.curN++
	rw.lastID = id
	if len(rw.cur) >= blockTargetBytes {
		return rw.cutBlock()
	}
	return nil
}

func (rw *runWriter) cutBlock() error {
	if rw.curN == 0 {
		return nil
	}
	block := finishBlock(rw.cur, rw.curN)
	if _, err := rw.w.Write(block); err != nil {
		return err
	}
	rw.index = append(rw.index, blockMeta{
		firstID: rw.firstID,
		lastID:  rw.lastID,
		offset:  rw.off,
		length:  int64(len(block)),
	})
	rw.off += int64(len(block))
	rw.cur = rw.cur[:0]
	rw.curN = 0
	return nil
}

// finish cuts the last block, writes index and footer, flushes, and
// optionally fsyncs. The file handle stays open for the caller.
func (rw *runWriter) finish(fsync bool) error {
	if err := rw.cutBlock(); err != nil {
		return err
	}
	idx := binary.AppendUvarint(nil, uint64(len(rw.index)))
	for _, bm := range rw.index {
		idx = binary.AppendUvarint(idx, uint64(bm.firstID))
		idx = binary.AppendUvarint(idx, uint64(bm.lastID))
		idx = binary.AppendUvarint(idx, uint64(bm.offset))
		idx = binary.AppendUvarint(idx, uint64(bm.length))
	}
	idx = binary.BigEndian.AppendUint32(idx, crc32.ChecksumIEEE(idx))
	if _, err := rw.w.Write(idx); err != nil {
		return err
	}
	var footer [runFooterSize]byte
	binary.BigEndian.PutUint64(footer[0:8], uint64(rw.off))
	binary.BigEndian.PutUint32(footer[8:12], uint32(len(idx)))
	binary.BigEndian.PutUint32(footer[12:16], runMagic)
	if _, err := rw.w.Write(footer[:]); err != nil {
		return err
	}
	if err := rw.w.Flush(); err != nil {
		return err
	}
	if fsync {
		return rw.f.Sync()
	}
	return nil
}

// runReader is an open, immutable run file: in-memory block index plus a
// read handle. Blocks are fetched through the shared cache.
type runReader struct {
	f     *os.File
	name  string // cache-key identity (path)
	index []blockMeta
	size  int64
	cache *cache
	json  bool // a PSR1 run: rows are JSON
}

// openRun maps a run file: validates the footer and loads the index.
func openRun(path string, c *cache) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size < runFooterSize {
		f.Close()
		return nil, fmt.Errorf("diskengine: run %s: too short", path)
	}
	var footer [runFooterSize]byte
	if _, err := f.ReadAt(footer[:], size-runFooterSize); err != nil {
		f.Close()
		return nil, err
	}
	magic := binary.BigEndian.Uint32(footer[12:16])
	if magic != runMagic && magic != runMagicJSON {
		f.Close()
		return nil, fmt.Errorf("diskengine: run %s: bad magic", path)
	}
	idxOff := int64(binary.BigEndian.Uint64(footer[0:8]))
	idxLen := int64(binary.BigEndian.Uint32(footer[8:12]))
	if idxOff < 0 || idxLen < 4 || idxOff+idxLen != size-runFooterSize {
		f.Close()
		return nil, fmt.Errorf("diskengine: run %s: bad index bounds", path)
	}
	idx := make([]byte, idxLen)
	if _, err := f.ReadAt(idx, idxOff); err != nil {
		f.Close()
		return nil, err
	}
	body, sum := idx[:len(idx)-4], binary.BigEndian.Uint32(idx[len(idx)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		f.Close()
		return nil, fmt.Errorf("diskengine: run %s: index checksum mismatch", path)
	}
	count, n := binary.Uvarint(body)
	if n <= 0 || count > uint64(idxLen) {
		f.Close()
		return nil, fmt.Errorf("diskengine: run %s: bad index count", path)
	}
	body = body[n:]
	metas := make([]blockMeta, 0, count)
	for i := uint64(0); i < count; i++ {
		var vals [4]int64
		for j := range vals {
			v, n := binary.Uvarint(body)
			if n <= 0 || v > uint64(1)<<62 {
				f.Close()
				return nil, fmt.Errorf("diskengine: run %s: truncated index", path)
			}
			vals[j] = int64(v)
			body = body[n:]
		}
		metas = append(metas, blockMeta{firstID: vals[0], lastID: vals[1], offset: vals[2], length: vals[3]})
	}
	return &runReader{f: f, name: path, index: metas, size: size, cache: c, json: magic == runMagicJSON}, nil
}

func (r *runReader) close() error { return r.f.Close() }

// decodeRow decodes one of this run's row entries.
func (r *runReader) decodeRow(data []byte) (store.Row, error) {
	if !r.json {
		return store.DecodeRow(data)
	}
	var row store.Row
	if err := json.Unmarshal(data, &row); err != nil {
		return nil, fmt.Errorf("diskengine: decode row: %w", err)
	}
	return row, nil
}

// block loads (through the cache) the decoded entries of block i.
func (r *runReader) block(i int) ([]blockEntry, error) {
	bm := r.index[i]
	if ents, ok := r.cache.get(r.name, bm.offset); ok {
		return ents, nil
	}
	raw := make([]byte, bm.length)
	if _, err := r.f.ReadAt(raw, bm.offset); err != nil {
		return nil, fmt.Errorf("diskengine: run %s: %w", r.name, err)
	}
	ents, err := decodeBlock(raw)
	if err != nil {
		return nil, fmt.Errorf("diskengine: run %s block @%d: %w", r.name, bm.offset, err)
	}
	r.cache.put(r.name, bm.offset, ents, bm.length)
	return ents, nil
}

// get point-looks-up one ID. The returned entry data aliases cached
// bytes.
func (r *runReader) get(id int64) (blockEntry, bool, error) {
	i := sort.Search(len(r.index), func(i int) bool { return r.index[i].lastID >= id })
	if i == len(r.index) || r.index[i].firstID > id {
		return blockEntry{}, false, nil
	}
	ents, err := r.block(i)
	if err != nil {
		return blockEntry{}, false, err
	}
	j := sort.Search(len(ents), func(j int) bool { return ents[j].id >= id })
	if j == len(ents) || ents[j].id != id {
		return blockEntry{}, false, nil
	}
	return ents[j], true, nil
}

// runIter streams a run's entries in ID order starting at from.
type runIter struct {
	r    *runReader
	bi   int
	ents []blockEntry
	pos  int
	err  error
}

// iter positions an iterator at the first entry with id >= from.
func (r *runReader) iter(from int64) *runIter {
	it := &runIter{r: r}
	it.bi = sort.Search(len(r.index), func(i int) bool { return r.index[i].lastID >= from })
	if it.bi < len(r.index) {
		it.ents, it.err = r.block(it.bi)
		if it.err == nil {
			it.pos = sort.Search(len(it.ents), func(j int) bool { return it.ents[j].id >= from })
		}
	}
	it.skipExhausted()
	return it
}

// skipExhausted advances past empty tails into the next block.
func (it *runIter) skipExhausted() {
	for it.err == nil && it.bi < len(it.r.index) && it.pos >= len(it.ents) {
		it.bi++
		it.pos = 0
		if it.bi < len(it.r.index) {
			it.ents, it.err = it.r.block(it.bi)
		}
	}
}

// peek returns the current entry without advancing; ok is false at end.
func (it *runIter) peek() (blockEntry, bool) {
	if it.err != nil || it.bi >= len(it.r.index) || it.pos >= len(it.ents) {
		return blockEntry{}, false
	}
	return it.ents[it.pos], true
}

// next advances to the following entry.
func (it *runIter) next() {
	it.pos++
	it.skipExhausted()
}
