package obs

import (
	"encoding/binary"
	"errors"
	"time"
)

// WireSpan is the flattened, wire-encodable form of one span: what an
// RPC server ships back to the originating process so the caller can
// stitch remote work into its local trace (the span-export protocol,
// see DESIGN.md). Parent is a span ID from the same export batch or from
// the importing trace; an unresolvable parent attaches at the trace root
// so partial exports degrade gracefully instead of disappearing.
type WireSpan struct {
	ID     string      `json:"id"`
	Parent string      `json:"p,omitempty"`
	Name   string      `json:"n"`
	Start  int64       `json:"s"` // unix nanoseconds
	End    int64       `json:"e"` // unix nanoseconds
	Attrs  [][2]string `json:"a,omitempty"`
}

// Export flattens the trace's span tree into wire spans. Roots are
// re-parented onto rootParent (the caller's span ID carried in the
// request header) so the importing side hangs the remote subtree in the
// right place; spans still open at export time borrow the current time
// as their end. When proc is non-empty, spans without a proc attribute
// are stamped with it, so a stitched trace shows which process ran each
// hop.
func (tr *Trace) Export(rootParent, proc string) []WireSpan {
	if tr == nil {
		return nil
	}
	now := time.Now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []WireSpan
	var walk func(sps []*Span, parent string)
	walk = func(sps []*Span, parent string) {
		for _, sp := range sps {
			end := sp.end
			if end.IsZero() {
				end = now
			}
			// One allocation for the copy and the proc stamp together.
			var attrs [][2]string
			stamp := proc != "" && !hasAttr(sp.attrs, "proc")
			if n := len(sp.attrs); n > 0 || stamp {
				attrs = append(make([][2]string, 0, n+1), sp.attrs...)
				if stamp {
					attrs = append(attrs, [2]string{"proc", proc})
				}
			}
			w := WireSpan{
				ID:     sp.id,
				Parent: parent,
				Name:   sp.name,
				Start:  sp.start.UnixNano(),
				End:    end.UnixNano(),
				Attrs:  attrs,
			}
			out = append(out, w)
			walk(sp.children, sp.id)
		}
	}
	walk(tr.spans, rootParent)
	return out
}

// ImportSpans stitches exported remote spans into this trace: each span
// hangs under the local or batch span whose ID matches its Parent, or at
// the trace root when the parent is unknown. Spans whose ID already
// exists in the trace are skipped, so importing the same batch twice
// (repeated result polls, a retried RPC) is idempotent — and so is the
// in-process case where client and server share one trace object.
// The cost is that of the batch, not of the trace: parents resolve
// through the trace's span-ID index (see Trace.index). The trace keeps the
// attribute slices of the spans it adds: ws must not be modified
// afterwards. Returns the number of spans added.
func (tr *Trace) ImportSpans(ws []WireSpan) int {
	if tr == nil || len(ws) == 0 {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	idx := tr.index
	if idx == nil {
		idx = make(map[string]*Span)
		var walk func(sps []*Span)
		walk = func(sps []*Span) {
			for _, sp := range sps {
				idx[sp.id] = sp
				walk(sp.children)
			}
		}
		walk(tr.spans)
		if !tr.done {
			// A live trace keeps the index for its next import; a finished
			// one (retained by the recent ring) pays this walk each time.
			tr.index = idx
		}
	}

	fresh := make([]*Span, 0, len(ws))
	for i := range ws {
		w := &ws[i]
		if w.ID == "" || idx[w.ID] != nil {
			continue
		}
		sp := &Span{
			trace:   tr,
			id:      w.ID,
			parent:  w.Parent,
			name:    w.Name,
			start:   time.Unix(0, w.Start),
			end:     time.Unix(0, w.End),
			ended:   true,
			pending: true,
			// Kept, not copied (ws is the caller's decoded reply, never
			// touched again); capacity clipped so Annotate reallocates.
			attrs: w.Attrs[:len(w.Attrs):len(w.Attrs)],
		}
		idx[w.ID] = sp
		fresh = append(fresh, sp)
	}
	// loops guards against malformed batches whose parent links loop:
	// only spans of this batch that are not hung yet (pending) can close a
	// cycle, and such a span attaches at the root instead of corrupting
	// the tree.
	loops := func(sp *Span) bool {
		hops := 0
		for p := idx[sp.parent]; p != nil && p.pending; p = idx[p.parent] {
			if hops++; p == sp || hops > len(fresh) {
				return true
			}
		}
		return false
	}
	for _, sp := range fresh {
		if p := idx[sp.parent]; p != nil && !loops(sp) {
			p.children = append(p.children, sp)
		} else {
			sp.parent = ""
			tr.spans = append(tr.spans, sp)
		}
		sp.pending = false
	}
	return len(fresh)
}

// Binary span batch — the one encoding of []WireSpan shared by every
// frame that carries spans (transport.Envelope, peer.Msg,
// measurement.ResultsResponse; see transport.AppendSpans):
//
//	[count:uvarint] then per span
//	[id:str][parent:str][name:str][start:varint][end-start:varint]
//	[nattrs:uvarint] then per attr [key:str][value:str]
//
// where str is a uvarint length followed by the bytes and start is unix
// nanoseconds.

// AppendWireSpans appends the binary batch encoding of ws.
func AppendWireSpans(b []byte, ws []WireSpan) []byte {
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, uint64(len(ws)))
	for i := range ws {
		w := &ws[i]
		str(w.ID)
		str(w.Parent)
		str(w.Name)
		b = binary.AppendVarint(b, w.Start)
		b = binary.AppendVarint(b, w.End-w.Start)
		b = binary.AppendUvarint(b, uint64(len(w.Attrs)))
		for _, kv := range w.Attrs {
			str(kv[0])
			str(kv[1])
		}
	}
	return b
}

var errSpanBatch = errors.New("obs: malformed span batch")

// DecodeWireSpans decodes a binary span batch. It converts b to one string
// and slices every ID, name and attribute out of that: a batch costs one
// string however many spans it holds, and the spans — which an importing
// trace keeps for as long as it lives — reference the batch, never the
// (much larger) frame it arrived in. Counts are checked against the bytes
// left, so a hostile count cannot drive an allocation beyond the batch.
func DecodeWireSpans(b []byte) ([]WireSpan, error) {
	s, off, bad := string(b), 0, false
	uvarint := func() uint64 {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			bad = true
			off = len(b)
			return 0
		}
		off += n
		return v
	}
	varint := func() int64 {
		u := uvarint() // zigzag, as binary.AppendVarint wrote it
		return int64(u>>1) ^ -int64(u&1)
	}
	str := func() string {
		n := uvarint()
		if n > uint64(len(b)-off) {
			bad = true
			off = len(b)
			return ""
		}
		v := s[off : off+int(n)]
		off += int(n)
		return v
	}
	count := func(minSize int) int {
		n := uvarint()
		if n > uint64((len(b)-off)/minSize) {
			bad = true
			return 0
		}
		return int(n)
	}
	n := count(6) // a span is ≥ 6 bytes: three lengths, two times, an attr count
	if n == 0 {
		if bad {
			return nil, errSpanBatch
		}
		return nil, nil
	}
	ws := make([]WireSpan, n)
	for i := range ws {
		w := &ws[i]
		w.ID, w.Parent, w.Name = str(), str(), str()
		w.Start = varint()
		w.End = w.Start + varint()
		if na := count(2); na > 0 { // an attr is ≥ 2 bytes
			w.Attrs = make([][2]string, na)
			for j := range w.Attrs {
				w.Attrs[j] = [2]string{str(), str()}
			}
		}
		if bad {
			return nil, errSpanBatch
		}
	}
	return ws, nil
}

func hasAttr(attrs [][2]string, key string) bool {
	for _, kv := range attrs {
		if kv[0] == key {
			return true
		}
	}
	return false
}
