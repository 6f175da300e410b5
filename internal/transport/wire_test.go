package transport

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"pricesheriff/internal/obs"
)

// fullEnvelope exercises every optional field of the binary envelope
// codec.
func fullEnvelope() *Envelope {
	return &Envelope{
		T:          "test.method",
		ID:         77,
		Body:       []byte(`{"x":1}`),
		Cancel:     true,
		DeadlineMS: 1500,
		TraceID:    "trace-1",
		SpanID:     "span-2",
		Sampled:    true,
		Err:        "boom",
		Code:       "deadline",
		Hint:       "replica-2",
		Spans:      []obs.WireSpan{{ID: "s1", Name: "handler"}},
	}
}

func TestEnvelopeBinaryRoundTrip(t *testing.T) {
	for name, e := range map[string]*Envelope{
		"full":  fullEnvelope(),
		"empty": {T: "m"},
		"body":  {T: "m", ID: 1, Body: []byte(`[1,2,3]`)},
	} {
		buf, tag, err := appendFrame(nil, e)
		if err != nil {
			t.Fatalf("%s: appendFrame: %v", name, err)
		}
		if tag != e.T {
			t.Errorf("%s: tag = %q, want %q", name, tag, e.T)
		}
		var got Envelope
		if err := decodeFrame(buf, &got); err != nil {
			t.Fatalf("%s: decodeFrame: %v", name, err)
		}
		a, _ := jsonMarshal(e)
		b, _ := jsonMarshal(&got)
		if string(a) != string(b) {
			t.Errorf("%s: round trip mismatch:\n in  %s\n out %s", name, a, b)
		}
	}
}

func jsonMarshal(e *Envelope) ([]byte, error) {
	return json.Marshal(e)
}

func TestEnvelopeDecodeTruncatedNeverPanics(t *testing.T) {
	buf, _, err := appendFrame(nil, fullEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(buf); i++ {
		var e Envelope
		if err := decodeFrame(buf[:i], &e); err == nil && i < len(buf)-1 {
			// Some prefixes may decode cleanly only if the format were
			// self-terminating; the envelope codec is length-checked, so
			// most truncations must error. Either way: no panic.
			_ = e
		}
	}
}

func TestFrameTooLargeErrorReportsSizeAndTag(t *testing.T) {
	err := &FrameTooLargeError{Size: 123456789, Tag: "ms.check_request"}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("FrameTooLargeError must match ErrFrameTooLarge")
	}
	msg := err.Error()
	if !strings.Contains(msg, "123456789") || !strings.Contains(msg, "ms.check_request") {
		t.Fatalf("error %q must name size and tag", msg)
	}
}

// TestSendOversizedBinaryFrame drives the send-side limit on the binary
// path: the error must carry the offending size and the frame's tag.
func TestSendOversizedBinaryFrame(t *testing.T) {
	n := NewInproc()
	lis, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		c, err := lis.Accept()
		if err == nil {
			defer c.Close()
			var v any
			c.Recv(&v)
		}
	}()
	conn, err := n.Dial(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	huge := &Envelope{T: "big.method", Body: make([]byte, MaxFrame+16)}
	for i := range huge.Body {
		huge.Body[i] = '1' // keep it valid JSON-ish; never sent anyway
	}
	err = conn.Send(huge)
	var fe *FrameTooLargeError
	if !errors.As(err, &fe) {
		t.Fatalf("Send err = %v, want *FrameTooLargeError", err)
	}
	if fe.Size <= MaxFrame {
		t.Errorf("reported size = %d, want > MaxFrame", fe.Size)
	}
	if fe.Tag != "big.method" {
		t.Errorf("reported tag = %q, want the envelope method", fe.Tag)
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Error("send-side error must match ErrFrameTooLarge")
	}
}

// TestWireDecElemLenRejectsAllocBombs: a frame claiming millions of
// elements in a few bytes must fail before allocation, not after.
func TestWireDecElemLenRejectsAllocBombs(t *testing.T) {
	b := AppendUvarint(nil, 1<<30) // absurd element count, 5-byte frame
	d := NewWireDec(b)
	if n := d.ElemLen(4); n != 0 {
		t.Fatalf("ElemLen = %d, want 0 on bomb", n)
	}
	if d.Err() == nil {
		t.Fatal("ElemLen must poison the decoder on a bomb count")
	}
}

// pageMsg is a test-local frame type shaped like the system's largest
// bodies — a page plus a handful of short strings — registered in the high
// tag range. It backs the decode allocation bound (alloc_test.go) and the
// "transport_test.page" cross-check sample.
type pageMsg struct {
	URL    string `json:"url"`
	Peer   string `json:"peer"`
	Mode   string `json:"mode"`
	Cookie string `json:"cookie"`
	Note   string `json:"note"`
	HTML   string `json:"html"`
	Status int64  `json:"status"`
}

func (m *pageMsg) WireTag() uint8 { return 241 }

func (m *pageMsg) AppendWire(b []byte) []byte {
	b = AppendString(b, m.URL)
	b = AppendString(b, m.Peer)
	b = AppendString(b, m.Mode)
	b = AppendString(b, m.Cookie)
	b = AppendString(b, m.Note)
	b = AppendString(b, m.HTML)
	return AppendVarint(b, m.Status)
}

func (m *pageMsg) DecodeWire(d *WireDec) error {
	m.URL = d.String()
	m.Peer = d.String()
	m.Mode = d.String()
	m.Cookie = d.String()
	m.Note = d.String()
	m.HTML = d.String()
	m.Status = d.Varint()
	return d.Err()
}

func init() {
	RegisterWire(241, "transport_test.page", func() WireMessage { return new(pageMsg) })
}

// TestDecodedFrameNeverAliasesReceiveBuffer: the receive buffer is pooled
// and rewritten by the next frame; everything a decoded envelope (and the
// message decoded from its body) holds must live in the frame's private
// copy.
func TestDecodedFrameNeverAliasesReceiveBuffer(t *testing.T) {
	in := fullEnvelope()
	in.Body = nil
	in.wmsg = &pageMsg{URL: "http://shop.example/p/1", Peer: "ppc-3", Mode: "own", Cookie: "c", Note: "n", HTML: "<html>page</html>", Status: 200}
	frame, _, err := appendFrame(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	var got Envelope
	if err := decodeFrame(frame, &got); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xEE // the pool hands the buffer to the next frame
	}
	m, err := decodeRegistered(got.binTag, got.binBody)
	if err != nil {
		t.Fatal(err)
	}
	page := m.(*pageMsg)
	if got.T != in.T || got.TraceID != in.TraceID || got.Err != in.Err || got.Hint != in.Hint ||
		page.URL != "http://shop.example/p/1" || page.HTML != "<html>page</html>" || page.Status != 200 ||
		len(got.Spans) != 1 || got.Spans[0].Name != "handler" {
		t.Errorf("decoded envelope changed with the receive buffer: %+v body %+v", got, page)
	}
}

// TestEnvelopeSpanBitsInterop pins the span flag: the encoder writes the
// binary batch under bit 12 and never sets the reserved bit 11 beside it
// (retired with the JSON span blob; the bits after it must keep their
// values), and a frame that does set the reserved bit decodes like any
// other unknown flag — ignored, with every known field intact.
func TestEnvelopeSpanBitsInterop(t *testing.T) {
	const reserved = 1 << 11
	if envHasSpans != reserved<<1 || envHasHint != reserved>>1 {
		t.Fatalf("envHasHint, envHasSpans = %#x, %#x: the reserved bit between them moved", envHasHint, envHasSpans)
	}
	spans := []obs.WireSpan{{ID: "s1", Parent: "s0", Name: "handler", Start: 7, End: 9, Attrs: [][2]string{{"proc", "shop"}}}}
	cur, _, err := appendFrame(nil, &Envelope{T: "shop.fetch", ID: 7, Err: "boom", Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	if flags := NewWireDec(cur[1:]).Uvarint(); flags&reserved != 0 || flags&envHasSpans == 0 {
		t.Fatalf("encoder wrote flags %b: want the span bit and never the reserved one", flags)
	}
	var got Envelope
	if err := decodeFrame(cur, &got); err != nil || !reflect.DeepEqual(got.Spans, spans) {
		t.Fatalf("round trip: spans %+v, err %v", got.Spans, err)
	}

	odd := AppendUvarint([]byte{frameEnv}, envHasID|envHasErr|reserved)
	odd = AppendString(odd, "shop.fetch")
	odd = AppendUvarint(odd, 7)
	odd = AppendString(odd, "boom")
	var fromOdd Envelope
	if err := decodeFrame(odd, &fromOdd); err != nil {
		t.Fatalf("frame with the reserved bit set: %v", err)
	}
	if fromOdd.T != "shop.fetch" || fromOdd.ID != 7 || fromOdd.Err != "boom" || fromOdd.Spans != nil {
		t.Errorf("frame with the reserved bit set decoded to %+v", fromOdd)
	}
}

func FuzzWireDecode(f *testing.F) {
	// Seeds: the three frame kinds, a real envelope, the retired advert, garbage.
	env, _, _ := appendFrame(nil, fullEnvelope())
	f.Add(env)
	f.Add([]byte{})
	f.Add([]byte{frameJSON, '{', '}'})
	f.Add([]byte{frameEnv})
	f.Add([]byte{frameMsg, 1})
	f.Add([]byte{0xBF, 'P', 'S', 1})
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Envelope
		_ = decodeFrame(data, &e) // error is fine; panic is the bug
		// Whatever spans come out — of the envelope, or of the bytes read as
		// a bare span batch — must stitch without hanging or panicking
		// (duplicate IDs, parent cycles, dangling parents).
		bare, _ := obs.DecodeWireSpans(data)
		for _, spans := range [][]obs.WireSpan{e.Spans, bare} {
			obs.NewRemoteTrace("fuzz").ImportSpans(spans)
		}
		// Every registered frame codec must also survive arbitrary bytes.
		// (Registrations from other packages are linked in via the
		// external test package's imports.)
		for _, info := range RegisteredWire() {
			m := info.New()
			d := NewWireDec(data)
			_ = m.DecodeWire(d)
		}
	})
}
