// Package history is the Price $heriff's durability and longitudinal
// measurement subsystem. The deployed watchdog kept a year of price
// measurements in MySQL and re-checked products over time; this package
// supplies the equivalent for the reproduction, stdlib-only like
// internal/obs and internal/retry:
//
//   - a segmented append-only write-ahead log (WAL) with CRC-framed
//     records, a configurable fsync policy, torn-tail crash recovery and
//     checkpoint compaction (wal.go, persist.go);
//   - a per-(product URL, vantage-country) time-series index over
//     completed check rows with range queries and fixed-bucket
//     downsampling for dashboard rendering (tsindex.go);
//   - a watch scheduler that re-executes registered price checks on a
//     jittered interval and emits longitudinal PD verdicts —
//     spread-appeared, spread-widened, price-drop — against the series
//     baseline (watch.go).
package history

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FsyncPolicy selects when the WAL flushes to stable storage.
type FsyncPolicy string

// Fsync policies: "always" syncs after every Append — one per mutation
// call of the store, however many rows it carries (every acknowledged
// write survives power loss, at one disk flush per call), "interval"
// syncs on a timer (bounded data loss, near-RAM throughput), "off" leaves
// flushing to the OS (crash-of-process safe, power-loss unsafe).
const (
	FsyncAlways   FsyncPolicy = "always"
	FsyncInterval FsyncPolicy = "interval"
	FsyncOff      FsyncPolicy = "off"
)

// ParseFsync validates a policy string ("" means FsyncInterval).
func ParseFsync(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case "":
		return FsyncInterval, nil
	case FsyncAlways, FsyncInterval, FsyncOff:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("history: unknown fsync policy %q (want always, interval or off)", s)
}

// WAL defaults.
const (
	DefaultSegmentBytes  = 4 << 20
	DefaultFsyncEvery    = 100 * time.Millisecond
	maxRecordBytes       = 16 << 20
	maxRetainedFrame     = 1 << 20 // frame buffer capacity kept between appends
	frameHeaderBytes     = 8       // 4B little-endian length + 4B CRC32 (Castagnoli) of the payload
	segmentPrefix        = "wal-"
	segmentSuffix        = ".seg"
	checkpointFile       = "checkpoint.json"
	checkpointTempSuffix = ".tmp"
)

// ErrWALClosed is returned by Append after Close.
var ErrWALClosed = errors.New("history: wal closed")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WALOptions configure a WAL.
type WALOptions struct {
	// Fsync is the flush policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncEvery is the timer period under FsyncInterval (default 100ms).
	FsyncEvery time.Duration
	// SegmentBytes rotates the active segment once it grows past this
	// size (default 4 MiB).
	SegmentBytes int64
	// Metrics receives wal byte/segment/record telemetry (nil disables).
	Metrics *Metrics
}

func (o WALOptions) withDefaults() WALOptions {
	if o.Fsync == "" {
		o.Fsync = FsyncInterval
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = DefaultFsyncEvery
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// WAL is a segmented append-only log of CRC-framed records. Appends are
// serialized; one WAL may be shared by many goroutines.
type WAL struct {
	dir  string
	opts WALOptions

	mu        sync.Mutex
	f         *os.File
	seq       int64  // active segment sequence number
	size      int64  // active segment size
	coldBytes int64  // total size of non-active segments
	segments  int    // on-disk segments, the active one included
	frame     []byte // Append's framing buffer, reused
	closed    bool
	stopSync  chan struct{}
	syncDone  sync.WaitGroup
}

func segmentName(seq int64) string {
	return fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix)
}

func parseSegmentName(name string) (int64, bool) {
	digits, ok := strings.CutPrefix(name, segmentPrefix)
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, segmentSuffix); !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 63) // no sign, fits an int64
	if err != nil {
		return 0, false
	}
	return int64(seq), true
}

// ListSegments returns the sequence numbers of the WAL segments in dir,
// ascending.
func ListSegments(dir string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []int64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// OpenWAL opens (creating if needed) the WAL in dir for appending. The
// highest existing segment becomes the active one; recovery/truncation of
// a torn tail is the caller's job (see Persister) and must happen first.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	seqs, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, opts: opts, seq: 1, segments: max(len(seqs), 1)}
	var cold int64
	if len(seqs) > 0 {
		w.seq = seqs[len(seqs)-1]
		for _, s := range seqs[:len(seqs)-1] {
			if fi, err := os.Stat(filepath.Join(dir, segmentName(s))); err == nil {
				cold += fi.Size()
			}
		}
	}
	w.coldBytes = cold
	f, err := os.OpenFile(filepath.Join(dir, segmentName(w.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w.f, w.size = f, fi.Size()
	w.opts.Metrics.walSized(w.coldBytes+w.size, w.segments)
	if w.opts.Fsync == FsyncInterval {
		w.stopSync = make(chan struct{})
		w.syncDone.Add(1)
		go w.syncLoop()
	}
	return w, nil
}

func (w *WAL) syncLoop() {
	defer w.syncDone.Done()
	t := time.NewTicker(w.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-w.stopSync:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed {
				w.f.Sync()
			}
			w.mu.Unlock()
		}
	}
}

// Append frames each payload as one record and writes them all to the
// active segment in one write (see AppendRecords).
func (w *WAL) Append(payloads ...[]byte) error {
	return w.AppendRecords(len(payloads), func(b []byte, i int) []byte {
		return append(b, payloads[i]...)
	})
}

// AppendRecords writes n records in one write to the active segment,
// rotating first when the segment is full — the records of one call never
// straddle two segments. encode(b, i) appends record i's payload to b and
// returns it; it runs under the WAL's lock and writes straight into the
// frame buffer, behind the header that is filled in once the payload's
// length is known. Under FsyncAlways AppendRecords returns only after one
// fsync has put them all on stable storage. A crash mid-write leaves a
// prefix of the records plus a torn one, which recovery truncates.
func (w *WAL) AppendRecords(n int, encode func(b []byte, i int) []byte) error {
	if n == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	frame := w.frame[:0]
	for i := 0; i < n; i++ {
		start := len(frame)
		frame = append(frame, make([]byte, frameHeaderBytes)...)
		frame = encode(frame, i)
		payload := frame[start+frameHeaderBytes:]
		if len(payload) > maxRecordBytes {
			w.keepFrame(frame)
			return fmt.Errorf("history: record of %d bytes exceeds limit", len(payload))
		}
		binary.LittleEndian.PutUint32(frame[start:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[start+4:], crc32.Checksum(payload, crcTable))
	}
	w.keepFrame(frame)
	if w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	w.size += int64(len(frame))
	if w.opts.Fsync == FsyncAlways {
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	w.opts.Metrics.walAppended(n, int64(len(frame)))
	return nil
}

// keepFrame retains frame's array for the next append unless it grew past
// maxRetainedFrame.
func (w *WAL) keepFrame(frame []byte) {
	if cap(frame) <= maxRetainedFrame {
		w.frame = frame
	} else {
		w.frame = nil
	}
}

// rotateLocked seals the active segment and opens the next one.
func (w *WAL) rotateLocked() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.coldBytes += w.size
	w.seq++
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(w.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f, w.size = f, 0
	w.segments++
	w.opts.Metrics.walSized(w.coldBytes+w.size, w.segments)
	return nil
}

// Rotate seals the active segment (if it holds any records) and returns
// the sequence number of the now-active segment: every record appended
// after Rotate returns lands in a segment >= that number. Compaction cuts
// its checkpoint here.
func (w *WAL) Rotate() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.seq, ErrWALClosed
	}
	if w.size == 0 {
		return w.seq, nil
	}
	if err := w.rotateLocked(); err != nil {
		return w.seq, err
	}
	return w.seq, nil
}

// RemoveBelow deletes all segments with sequence numbers < seq — they are
// folded into a checkpoint and no longer needed for recovery — and resets
// the segment count and cold bytes from a listing of what is left.
func (w *WAL) RemoveBelow(seq int64) error {
	seqs, err := ListSegments(w.dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, s := range seqs {
		if s >= seq {
			continue
		}
		if err := os.Remove(filepath.Join(w.dir, segmentName(s))); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.refreshGaugesLocked()
	return firstErr
}

// refreshGaugesLocked recomputes cold bytes and segment count from disk.
func (w *WAL) refreshGaugesLocked() {
	seqs, err := ListSegments(w.dir)
	if err != nil {
		return
	}
	var cold int64
	for _, s := range seqs {
		if s == w.seq {
			continue
		}
		if fi, err := os.Stat(filepath.Join(w.dir, segmentName(s))); err == nil {
			cold += fi.Size()
		}
	}
	w.coldBytes = cold
	w.segments = len(seqs)
	w.opts.Metrics.walSized(w.coldBytes+w.size, w.segments)
}

// SegmentCount returns the number of on-disk segments including the
// active one. It is counted, not listed: OpenWAL sets it, a rotation adds
// one, RemoveBelow's listing resets it.
func (w *WAL) SegmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.segments
}

// TotalBytes returns the on-disk size of all segments.
func (w *WAL) TotalBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.coldBytes + w.size
}

// ActiveSeq returns the active segment's sequence number.
func (w *WAL) ActiveSeq() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Sync forces an fsync of the active segment.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	return w.f.Sync()
}

// Close syncs and closes the active segment; further Appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	stop := w.stopSync
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		w.syncDone.Wait()
	}
	return err
}

// ErrCorruptRecord marks a frame whose length or checksum is invalid.
var ErrCorruptRecord = errors.New("history: corrupt wal record")

// DecodeFrame parses one frame from buf. It returns the payload, the
// total frame size consumed, and an error: io.ErrUnexpectedEOF when buf
// holds only a record prefix (a torn tail), ErrCorruptRecord when the
// frame is malformed.
func DecodeFrame(buf []byte) (payload []byte, n int, err error) {
	if len(buf) < frameHeaderBytes {
		return nil, 0, io.ErrUnexpectedEOF
	}
	ln := binary.LittleEndian.Uint32(buf[0:4])
	if ln > maxRecordBytes {
		return nil, 0, ErrCorruptRecord
	}
	total := frameHeaderBytes + int(ln)
	if len(buf) < total {
		return nil, 0, io.ErrUnexpectedEOF
	}
	payload = buf[frameHeaderBytes:total]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, 0, ErrCorruptRecord
	}
	return payload, total, nil
}

// ReplaySegment reads every intact record of one segment file in order,
// calling fn for each. It returns the byte offset of the end of the last
// intact record and whether the file ends in garbage (a torn or corrupt
// tail) after that offset.
func ReplaySegment(path string, fn func(payload []byte) error) (goodOffset int64, torn bool, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	off := 0
	for off < len(buf) {
		payload, n, derr := DecodeFrame(buf[off:])
		if derr != nil {
			return int64(off), true, nil
		}
		if err := fn(payload); err != nil {
			return int64(off), false, err
		}
		off += n
	}
	return int64(off), false, nil
}
