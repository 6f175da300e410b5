// Binary wire codec. Every connection is binary from its first byte: a
// deployment is one build, so there is one framing and no negotiation. The
// hot RPC frames (price-check submit, vantage results, store row ops, HA
// heartbeat/append) get hand-written encodings; a payload type with no
// registered encoder rides as JSON inside a binary frame (frameJSON, or an
// envelope's JSON body), so unknown types always work.
//
// Frame payload layout (inside the 4-byte header, see frameFlagBinary):
//
//	[kind:1] ...
//	kind 0 (frameJSON): raw JSON bytes of the value
//	kind 1 (frameEnv):  binary Envelope (see appendEnvelope)
//	kind 2 (frameMsg):  [tag:1] + AppendWire bytes of a registered type
//
// All integers are unsigned or zigzag varints; strings and byte blobs are
// length-prefixed. Decoders are bounds-checked and never panic on
// malformed input (FuzzWireDecode in wire_test.go).
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json" // lint:allow — frameJSON: a frame whose payload type has no registered codec
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"unsafe"

	"pricesheriff/internal/obs"
)

// Frame kinds of the binary framing layer.
const (
	frameJSON = 0x00
	frameEnv  = 0x01
	frameMsg  = 0x02
)

var errWireFrame = errors.New("transport: malformed binary frame")

// A frame header is 4 bytes: frameFlagBinary, then a 24-bit big-endian
// payload length — so payloads top out at MaxBinaryFrame. The flag byte can
// never open a 32-bit length prefix of a frame under MaxFrame (whose top
// byte is at most 0x01), which is how a peer that frames differently is
// told apart and rejected on its first header (see ForeignFrameError).
const (
	frameFlagBinary = 0x81
	MaxBinaryFrame  = 1<<24 - 1
)

// ForeignFrameError reports a TCP frame header without frameFlagBinary —
// the peer is not this build. The connection that read it is closed.
type ForeignFrameError struct {
	Remote string  // address of the offending peer
	Header [4]byte // the header as read
}

func (e *ForeignFrameError) Error() string {
	return fmt.Sprintf("transport: peer %s does not speak the binary framing (header % x)", e.Remote, e.Header[:])
}

// FrameTooLargeError reports a frame over MaxFrame, carrying the
// offending size and the frame's type tag (the RPC method for envelopes,
// the registered wire name or Go type otherwise). It matches
// ErrFrameTooLarge under errors.Is.
type FrameTooLargeError struct {
	Size int    // encoded frame size in bytes
	Tag  string // what was being framed
}

func (e *FrameTooLargeError) Error() string {
	return fmt.Sprintf("transport: frame exceeds MaxFrame (%d > %d bytes, frame %q)",
		e.Size, MaxFrame, e.Tag)
}

// Is matches the sentinel so existing errors.Is(err, ErrFrameTooLarge)
// call sites keep working.
func (e *FrameTooLargeError) Is(target error) bool { return target == ErrFrameTooLarge }

// --- encode primitives (exported: other packages hand-write encoders) ---

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zigzag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a length-prefixed byte blob.
func AppendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendSpans appends a span batch in its binary layout (see
// obs.AppendWireSpans), length-prefixed so a decoder can skip it whole.
func AppendSpans(b []byte, spans []obs.WireSpan) []byte {
	return AppendSized(b, func(b []byte) []byte { return obs.AppendWireSpans(b, spans) })
}

// AppendBool appends a bool as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat appends a float64 as its 8 IEEE-754 bytes.
func AppendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

// WireDec is a bounds-checked sequential decoder over one frame payload
// that it owns: the bytes handed to NewWireDec must never be written
// again, because String and Bytes return views of them rather than
// copies. The framing layer makes that true by taking exactly one private
// copy of every received frame (decodeFrame) — the pooled receive buffer
// is recycled, the copy is what a decoded message is made of. The first
// malformed read poisons the decoder; every later read returns zero
// values, so decode methods can run unconditionally and check Err once.
type WireDec struct {
	buf []byte
	off int
	err error
}

// NewWireDec wraps payload bytes for decoding and takes ownership of
// them: everything decoded aliases b, so b must not be modified afterwards.
func NewWireDec(b []byte) *WireDec { return &WireDec{buf: b} }

// Fail poisons the decoder with err (the first failure wins).
func (d *WireDec) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// fail formats the truncation error only once: a decoder that keeps
// reading after its first failure allocates nothing more.
func (d *WireDec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated at offset %d", errWireFrame, d.off)
	}
}

// Err returns the sticky decode error, if any.
func (d *WireDec) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *WireDec) Remaining() int { return len(d.buf) - d.off }

// Byte reads one byte.
func (d *WireDec) Byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Uvarint reads an unsigned varint.
func (d *WireDec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag varint.
func (d *WireDec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Len reads a length prefix and validates it against the unread bytes, so
// a hostile length can never drive an allocation larger than the frame.
func (d *WireDec) Len() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()) {
		d.fail()
		return 0
	}
	return int(n)
}

// ElemLen reads an element count and validates it against the unread
// bytes assuming each element encodes at least minSize bytes — so a
// hostile count can never drive a slice allocation beyond what the frame
// itself could carry.
func (d *WireDec) ElemLen(minSize int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if minSize < 1 {
		minSize = 1
	}
	if n > uint64(d.Remaining()/minSize) {
		d.fail()
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string as a view of the decoder's
// buffer: no copy, whatever the number of string fields. The flip side:
// every returned string keeps the whole frame copy alive, so a caller that
// stores one beyond the request it arrived in (a map key, a cached row)
// must strings.Clone it at that point.
func (d *WireDec) String() string {
	n := d.Len()
	if d.err != nil || n == 0 {
		return ""
	}
	s := unsafe.String(&d.buf[d.off], n)
	d.off += n
	return s
}

// Bytes reads a length-prefixed byte blob as a view of the decoder's
// buffer (capacity clipped, so an append cannot reach the bytes behind
// it). The String rule applies: bytes.Clone what outlives the request. A
// zero length returns nil.
func (d *WireDec) Bytes() []byte {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	p := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return p
}

// Spans reads a length-prefixed binary span batch (see AppendSpans). The
// spans are decoded from a copy of their own: they are what an importing
// trace keeps, and must not pin the frame they rode in on.
func (d *WireDec) Spans() []obs.WireSpan {
	blob := d.Bytes()
	if len(blob) == 0 {
		return nil
	}
	spans, err := obs.DecodeWireSpans(blob)
	if err != nil {
		d.Fail(fmt.Errorf("%w: span batch: %v", errWireFrame, err))
	}
	return spans
}

// Bool reads a one-byte bool.
func (d *WireDec) Bool() bool { return d.Byte() != 0 }

// Float reads 8 IEEE-754 bytes.
func (d *WireDec) Float() float64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// --- registry ---

// WireMessage is a frame body with a hand-written binary codec. AppendWire
// must be a pure serialization of in-memory state (it cannot fail);
// DecodeWire must read exactly what AppendWire wrote, using only the
// WireDec accessors: the decoded value then aliases the frame's one
// private copy and never the transport's reused buffers. Tag 0 is
// reserved.
type WireMessage interface {
	WireTag() uint8
	AppendWire(b []byte) []byte
	DecodeWire(d *WireDec) error
}

// WireInfo describes one registered frame type (see RegisteredWire).
type WireInfo struct {
	Tag  uint8
	Name string
	New  func() WireMessage
}

var (
	wireMu  sync.RWMutex
	wireReg = make(map[uint8]WireInfo)
)

// RegisterWire registers a frame type under its tag; packages call it from
// init. Registering a duplicate tag panics (a wiring bug, not a runtime
// condition).
func RegisterWire(tag uint8, name string, factory func() WireMessage) {
	if tag == 0 {
		panic("transport: wire tag 0 is reserved")
	}
	wireMu.Lock()
	defer wireMu.Unlock()
	if prev, dup := wireReg[tag]; dup {
		panic(fmt.Sprintf("transport: wire tag %d already registered as %q", tag, prev.Name))
	}
	wireReg[tag] = WireInfo{Tag: tag, Name: name, New: factory}
}

// RegisteredWire lists every registered frame type, sorted by tag — the
// cross-check tests iterate it to prove JSON and binary agree everywhere.
func RegisteredWire() []WireInfo {
	wireMu.RLock()
	defer wireMu.RUnlock()
	out := make([]WireInfo, 0, len(wireReg))
	for _, info := range wireReg {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// newWire constructs a fresh instance of a registered frame type.
func newWire(tag uint8) (WireMessage, bool) {
	wireMu.RLock()
	info, ok := wireReg[tag]
	wireMu.RUnlock()
	if !ok {
		return nil, false
	}
	return info.New(), true
}

// wireName names a tag for error and frame-size reporting.
func wireName(tag uint8) string {
	wireMu.RLock()
	info, ok := wireReg[tag]
	wireMu.RUnlock()
	if !ok {
		return fmt.Sprintf("wire:%d", tag)
	}
	return info.Name
}

// --- buffer pool ---

// bufPool recycles frame encode/decode buffers across Sends and Recvs;
// oversized buffers are dropped so one huge page frame cannot pin memory.
// Buffers travel as the *[]byte holder the pool handed out, so putting one
// back allocates nothing.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledBuf = 1 << 20

func getBuf() *[]byte {
	p := bufPool.Get().(*[]byte)
	*p = (*p)[:0]
	return p
}

func putBuf(p *[]byte) {
	if cap(*p) > maxPooledBuf {
		return
	}
	bufPool.Put(p)
}

// --- envelope codec ---

// Envelope flag bits (presence markers; absent fields cost zero bytes).
const (
	envHasID uint64 = 1 << iota
	envHasBody
	envHasBinBody
	envCancel
	envHasDeadline
	envHasTraceID
	envHasSpanID
	envSampled
	envHasErr
	envHasCode
	envHasHint
	_ // reserved (the retired JSON span blob), so envHasSpans keeps its value
	envHasSpans
)

// appendEnvelope appends the binary encoding of e (without the frame kind
// byte). A pending outgoing wire body (e.wmsg) is encoded inline, so the
// hot path never materializes an intermediate body buffer.
func appendEnvelope(b []byte, e *Envelope) []byte {
	var flags uint64
	if e.ID != 0 {
		flags |= envHasID
	}
	if e.wmsg != nil || e.binTag != 0 {
		flags |= envHasBinBody
	} else if len(e.Body) > 0 {
		flags |= envHasBody
	}
	if e.Cancel {
		flags |= envCancel
	}
	if e.DeadlineMS != 0 {
		flags |= envHasDeadline
	}
	if e.TraceID != "" {
		flags |= envHasTraceID
	}
	if e.SpanID != "" {
		flags |= envHasSpanID
	}
	if e.Sampled {
		flags |= envSampled
	}
	if e.Err != "" {
		flags |= envHasErr
	}
	if e.Code != "" {
		flags |= envHasCode
	}
	if e.Hint != "" {
		flags |= envHasHint
	}
	if len(e.Spans) > 0 {
		flags |= envHasSpans
	}
	b = binary.AppendUvarint(b, flags)
	b = AppendString(b, e.T)
	if flags&envHasID != 0 {
		b = binary.AppendUvarint(b, e.ID)
	}
	if flags&envHasBinBody != 0 {
		if e.wmsg != nil {
			b = append(b, e.wmsg.WireTag())
			// Length-prefix the body so a decoder can skip or slice it
			// without understanding the inner encoding: encode to the end
			// of the buffer, then splice the length in front.
			b = AppendSized(b, e.wmsg.AppendWire)
		} else {
			b = append(b, e.binTag)
			b = AppendBytes(b, e.binBody)
		}
	} else if flags&envHasBody != 0 {
		b = AppendBytes(b, e.Body)
	}
	if flags&envHasDeadline != 0 {
		b = binary.AppendVarint(b, e.DeadlineMS)
	}
	if flags&envHasTraceID != 0 {
		b = AppendString(b, e.TraceID)
	}
	if flags&envHasSpanID != 0 {
		b = AppendString(b, e.SpanID)
	}
	if flags&envHasErr != 0 {
		b = AppendString(b, e.Err)
	}
	if flags&envHasCode != 0 {
		b = AppendString(b, e.Code)
	}
	if flags&envHasHint != 0 {
		b = AppendString(b, e.Hint)
	}
	if flags&envHasSpans != 0 {
		b = AppendSpans(b, e.Spans)
	}
	return b
}

// AppendSized appends fn's output prefixed with its byte length — what
// WireDec.Bytes reads back — without an intermediate buffer: a nested
// message is encoded in place and a decoder can still skip or slice it
// without understanding it.
func AppendSized(b []byte, fn func([]byte) []byte) []byte {
	start := len(b)
	b = fn(b)
	n := len(b) - start
	var pre [binary.MaxVarintLen64]byte
	plen := binary.PutUvarint(pre[:], uint64(n))
	b = append(b, pre[:plen]...)
	// Rotate the length prefix in front of the payload it describes.
	copy(pre[:plen], b[len(b)-plen:])
	copy(b[start+plen:], b[start:len(b)-plen])
	copy(b[start:], pre[:plen])
	return b
}

// decodeEnvelope decodes a binary envelope payload into e. It takes the
// frame's one private copy: header strings, the body and — through the
// decoder the body is later handed to — every string of the inner message
// alias that copy; payload itself (a pooled receive buffer) is not
// referenced once decodeEnvelope returns.
func decodeEnvelope(payload []byte, e *Envelope) error {
	d := &WireDec{buf: bytes.Clone(payload)}
	flags := d.Uvarint()
	e.T = d.String()
	if flags&envHasID != 0 {
		e.ID = d.Uvarint()
	}
	if flags&envHasBinBody != 0 {
		e.binTag = d.Byte()
		e.binBody = d.Bytes()
		if d.err == nil && e.binTag == 0 {
			d.Fail(fmt.Errorf("%w: binary body with reserved tag 0", errWireFrame))
		}
	} else if flags&envHasBody != 0 {
		e.Body = d.Bytes()
	}
	if flags&envHasDeadline != 0 {
		e.DeadlineMS = d.Varint()
	}
	if flags&envHasTraceID != 0 {
		e.TraceID = d.String()
	}
	if flags&envHasSpanID != 0 {
		e.SpanID = d.String()
	}
	e.Cancel = flags&envCancel != 0
	e.Sampled = flags&envSampled != 0
	if flags&envHasErr != 0 {
		e.Err = d.String()
	}
	if flags&envHasCode != 0 {
		e.Code = d.String()
	}
	if flags&envHasHint != 0 {
		e.Hint = d.String()
	}
	if flags&envHasSpans != 0 {
		e.Spans = d.Spans()
	}
	return d.Err()
}

// --- frame codec (shared by the TCP and in-process fabrics) ---

// appendFrame appends the binary-mode framing of v: envelopes and
// registered wire types get their hand-written codecs, anything else
// falls back to JSON inside a frameJSON frame. The returned tag names the
// frame for size-limit errors.
func appendFrame(b []byte, v any) ([]byte, string, error) {
	switch m := v.(type) {
	case *Envelope:
		b = append(b, frameEnv)
		return appendEnvelope(b, m), m.T, nil
	case WireMessage:
		b = append(b, frameMsg, m.WireTag())
		return m.AppendWire(b), wireName(m.WireTag()), nil
	default:
		data, err := json.Marshal(v)
		if err != nil {
			return b, "", fmt.Errorf("transport: marshal: %w", err)
		}
		b = append(b, frameJSON)
		return append(b, data...), fmt.Sprintf("%T", v), nil
	}
}

// decodeFrame decodes one binary-mode frame payload into v. data is only
// read: what v ends up holding aliases a private copy of it (or, for a
// JSON frame, whatever encoding/json allocated), so the caller may recycle
// data as soon as decodeFrame returns.
func decodeFrame(data []byte, v any) error {
	if len(data) == 0 {
		return fmt.Errorf("%w: empty frame", errWireFrame)
	}
	switch data[0] {
	case frameJSON:
		return json.Unmarshal(data[1:], v)
	case frameEnv:
		e, ok := v.(*Envelope)
		if !ok {
			return fmt.Errorf("%w: envelope frame decoded into %T", errWireFrame, v)
		}
		return decodeEnvelope(data[1:], e)
	case frameMsg:
		if len(data) < 2 {
			return fmt.Errorf("%w: message frame without tag", errWireFrame)
		}
		tag := data[1]
		m, ok := v.(WireMessage)
		if !ok || m.WireTag() != tag {
			return fmt.Errorf("%w: frame %s decoded into %T", errWireFrame, wireName(tag), v)
		}
		d := NewWireDec(bytes.Clone(data[2:])) // the frame's one private copy
		if err := m.DecodeWire(d); err != nil {
			return err
		}
		return d.Err()
	default:
		return fmt.Errorf("%w: unknown frame kind 0x%02x", errWireFrame, data[0])
	}
}

// decodeRegistered constructs and decodes a registered frame type — the
// server side of a binary body whose method has a wire-aware handler.
func decodeRegistered(tag uint8, payload []byte) (WireMessage, error) {
	m, ok := newWire(tag)
	if !ok {
		return nil, fmt.Errorf("transport: no wire codec registered for tag %d", tag)
	}
	d := NewWireDec(payload)
	if err := m.DecodeWire(d); err != nil {
		return nil, err
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return m, nil
}
