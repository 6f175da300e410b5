// Binary wire codec. The JSON frame format marshals every envelope and
// body through reflection; the hot RPC frames (price-check submit,
// vantage result polls, store row ops, HA heartbeat/append) dominate the
// deployment's traffic, so they get a hand-written, versioned binary
// encoding instead. The codec is negotiated per connection (see
// transport.go): a binary-capable dialer sends a hello, the acceptor
// answers with the mode it speaks, and both fall back to JSON when either
// side is configured -wire=json. Within a binary connection, frames whose
// payload type has no registered encoder still ride as JSON (frameJSON),
// so unknown types always work.
//
// Binary frame payload layout (inside the usual 4-byte length prefix):
//
//	[kind:1] ...
//	kind 0 (frameJSON): raw JSON bytes of the value
//	kind 1 (frameEnv):  binary Envelope (see appendEnvelope)
//	kind 2 (frameMsg):  [tag:1] + AppendWire bytes of a registered type
//
// All integers are unsigned or zigzag varints; strings and byte blobs are
// length-prefixed. Decoders are bounds-checked and never panic on
// malformed input (fuzzed in wire_fuzz_test.go).
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json" // lint:allow — the frameJSON fallback and the pre-PR-15 span blob
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"unsafe"

	"pricesheriff/internal/obs"
)

// Wire mode names accepted by TCP.Wire / Inproc.Wire and the -wire flag.
const (
	WireBinary = "binary"
	WireJSON   = "json"
)

// wantBinary normalizes a Wire config string: binary is the default, the
// JSON ablation must be asked for by name.
func wantBinary(mode string) bool { return mode != WireJSON }

// Frame kinds of the binary framing layer.
const (
	frameJSON = 0x00
	frameEnv  = 0x01
	frameMsg  = 0x02
)

// Negotiation advert: 4 bytes, the size of a length prefix. Each binary-
// capable endpoint writes one the moment its connection exists (a
// fire-and-forget write — negotiation never blocks, so raw sequential
// Send/Recv use of a conn pair cannot deadlock), and each side's receive
// path consumes the peer's advert before the first real frame. A sender
// switches to binary frames only after seeing the peer's advert; until
// then frames ride as legacy JSON, which is always safe because every
// frame header is self-describing (see frameFlagBinary). The first byte
// can never open a legal JSON frame header (it would imply a length over
// MaxFrame), so an advert is unambiguous without lookahead.
var (
	wireHello    = [4]byte{0xBF, 'P', 'S', 1} // "I speak binary wire v1"
	errWireFrame = errors.New("transport: malformed binary frame")
)

// isHello reports whether a 4-byte header is a binary-capability advert.
func isHello(h [4]byte) bool {
	return h[0] == 0xBF && h[1] == 'P' && h[2] == 'S'
}

// Frame headers are 4 bytes. Legacy JSON frames carry a big-endian 32-bit
// payload length, whose top byte never exceeds 0x01 (MaxFrame is 16 MiB).
// Binary frames set frameFlagBinary in the first byte and carry a 24-bit
// length in the remaining three — so binary payloads top out at
// MaxBinaryFrame, one byte under the JSON limit.
const (
	frameFlagBinary = 0x81
	MaxBinaryFrame  = 1<<24 - 1
)

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

func (d *WireDec) fail() {
	d.Fail(fmt.Errorf("%w: truncated at offset %d", errWireFrame, d.off))
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

// JSONSpans reads the length-prefixed JSON span blob that frames carried
// before the binary span batch; encoders no longer write it.
func (d *WireDec) JSONSpans() []obs.WireSpan {
	blob := d.Bytes()
	if len(blob) == 0 {
		return nil
	}
	var spans []obs.WireSpan
	if err := json.Unmarshal(blob, &spans); err != nil {
		d.Fail(fmt.Errorf("%w: spans blob: %v", errWireFrame, err))
		return nil
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
	envHasJSONSpans // read for old peers, never written
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
	if flags&envHasJSONSpans != 0 {
		e.Spans = d.JSONSpans()
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

// frameTag names a frame value for size-limit error reporting: the RPC
// method for envelopes, the registered name for wire messages, and the Go
// type otherwise.
func frameTag(v any) string {
	switch m := v.(type) {
	case *Envelope:
		return m.T
	case WireMessage:
		return wireName(m.WireTag())
	default:
		return fmt.Sprintf("%T", v)
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

// wireBinaryConn is implemented by connections that completed (or skipped)
// negotiation; the RPC layer asks it before choosing body encodings.
type wireBinaryConn interface{ WireBinary() bool }

// connBinary reports whether conn negotiated the binary codec.
func connBinary(conn Conn) bool {
	wc, ok := conn.(wireBinaryConn)
	return ok && wc.WireBinary()
}
