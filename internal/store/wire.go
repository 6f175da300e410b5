package store

import (
	"encoding/json"
	"fmt"

	"pricesheriff/internal/transport"
)

// Hand-written binary codecs for the store's hot frames: single-row and
// batched inserts plus their responses, and the row list a select answers
// with. The row codec (appendRow/decodeRow) is also what the WAL records
// and the disk engine's run files hold (record.go). Row values are the
// JSON-surviving set: string/float64/bool/nil scalars, and []any and
// map[string]any of them; any other value is stored as what a JSON round
// trip makes of it.

// Wire tags of this package (global registry; see transport.RegisterWire).
const (
	wireTagInsertReq       = 4
	wireTagInsertResp      = 5
	wireTagInsertBatchReq  = 6
	wireTagInsertBatchResp = 7
	wireTagRowList         = 23
)

func init() {
	transport.RegisterWire(wireTagInsertReq, "store.insert_request", func() transport.WireMessage { return new(insertReq) })
	transport.RegisterWire(wireTagInsertResp, "store.insert_response", func() transport.WireMessage { return new(insertResp) })
	transport.RegisterWire(wireTagInsertBatchReq, "store.insert_batch_request", func() transport.WireMessage { return new(insertBatchReq) })
	transport.RegisterWire(wireTagInsertBatchResp, "store.insert_batch_response", func() transport.WireMessage { return new(insertBatchResp) })
	transport.RegisterWire(wireTagRowList, "store.row_list", func() transport.WireMessage { return new(rowList) })
}

// Row value type markers. 4 is retired (a JSON sub-blob).
const (
	valNil    = 0
	valString = 1
	valFloat  = 2
	valBool   = 3
	valList   = 5
	valMap    = 6
)

// maxValueDepth bounds list/map nesting, as encoding/json does: a value
// nested deeper is written as nil, and a decoder refuses deeper input
// instead of recursing on it.
const maxValueDepth = 10000

// maxNestedHint caps the room a decoder reserves for a list or map from
// the count its input claims. ElemLen checks a count against the bytes
// left, not against what the enclosing containers already claimed, so
// sizing every level of a deep nest from its claim would reserve about
// 16 bytes per input byte per level; reserving little and growing with
// what really decodes keeps a decode's memory proportional to its input.
const maxNestedHint = 16

// appendValue appends one row value nested depth levels deep. Integer
// widths collapse to float64, exactly as a JSON round trip would.
func appendValue(b []byte, v any, depth int) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, valNil)
	case string:
		b = append(b, valString)
		return transport.AppendString(b, x)
	case float64:
		b = append(b, valFloat)
		return transport.AppendFloat(b, x)
	case int:
		b = append(b, valFloat)
		return transport.AppendFloat(b, float64(x))
	case int64:
		b = append(b, valFloat)
		return transport.AppendFloat(b, float64(x))
	case float32:
		b = append(b, valFloat)
		return transport.AppendFloat(b, float64(x))
	case bool:
		b = append(b, valBool)
		return transport.AppendBool(b, x)
	case []any:
		if x == nil || depth >= maxValueDepth {
			return append(b, valNil)
		}
		b = append(b, valList)
		b = transport.AppendUvarint(b, uint64(len(x)))
		for _, e := range x {
			b = appendValue(b, e, depth+1)
		}
		return b
	case map[string]any:
		if x == nil || depth >= maxValueDepth {
			return append(b, valNil)
		}
		b = append(b, valMap)
		b = transport.AppendUvarint(b, uint64(len(x)))
		for k, e := range x {
			b = transport.AppendString(b, k)
			b = appendValue(b, e, depth+1)
		}
		return b
	default:
		return appendValue(b, jsonValue(x), depth)
	}
}

// jsonValue is what a JSON round trip makes of v (nil if v has no JSON
// form): a scalar, []any or map[string]any.
func jsonValue(v any) any {
	blob, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	var out any
	if json.Unmarshal(blob, &out) != nil {
		return nil
	}
	return out
}

func decodeValue(d *transport.WireDec, depth int) any {
	switch t := d.Byte(); t {
	case valNil:
		return nil
	case valString:
		return d.String()
	case valFloat:
		return d.Float()
	case valBool:
		return d.Bool()
	case valList:
		if tooDeep(d, depth) {
			return nil
		}
		n := d.ElemLen(1)
		l := make([]any, 0, min(n, maxNestedHint))
		for i := 0; i < n && d.Err() == nil; i++ {
			l = append(l, decodeValue(d, depth+1))
		}
		return l
	case valMap:
		if tooDeep(d, depth) {
			return nil
		}
		n := d.ElemLen(2)
		m := make(map[string]any, min(n, maxNestedHint))
		for i := 0; i < n && d.Err() == nil; i++ {
			k := d.String()
			m[k] = decodeValue(d, depth+1)
		}
		return m
	default:
		d.Fail(fmt.Errorf("store: unknown row value type %d", t))
		return nil
	}
}

// tooDeep fails d when a list or map would nest past maxValueDepth.
func tooDeep(d *transport.WireDec, depth int) bool {
	if depth < maxValueDepth {
		return false
	}
	d.Fail(fmt.Errorf("store: row value nested deeper than %d", maxValueDepth))
	return true
}

// appendRow appends a Row with a presence byte, so a nil map survives the
// round trip the same way JSON's null does.
func appendRow(b []byte, r Row) []byte {
	if r == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = transport.AppendUvarint(b, uint64(len(r)))
	for k, v := range r {
		b = transport.AppendString(b, k)
		b = appendValue(b, v, 0)
	}
	return b
}

func decodeRow(d *transport.WireDec) Row {
	if d.Byte() == 0 {
		return nil
	}
	n := d.ElemLen(2)   // a row entry is ≥ 2 bytes (key length + type marker)
	r := make(Row, n+1) // an inserted row is stored as decoded, plus its ID column
	for i := 0; i < n; i++ {
		k := d.String()
		v := decodeValue(d, 0)
		if d.Err() != nil {
			return nil
		}
		r[k] = v
	}
	return r
}

// WireTag implements transport.WireMessage.
func (r *insertReq) WireTag() uint8 { return wireTagInsertReq }

// AppendWire implements transport.WireMessage.
func (r *insertReq) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, r.Table)
	return appendRow(b, r.Row)
}

// DecodeWire implements transport.WireMessage.
func (r *insertReq) DecodeWire(d *transport.WireDec) error {
	r.Table = d.String()
	r.Row = decodeRow(d)
	return d.Err()
}

// WireTag implements transport.WireMessage.
func (r *insertResp) WireTag() uint8 { return wireTagInsertResp }

// AppendWire implements transport.WireMessage.
func (r *insertResp) AppendWire(b []byte) []byte {
	return transport.AppendVarint(b, r.ID)
}

// DecodeWire implements transport.WireMessage.
func (r *insertResp) DecodeWire(d *transport.WireDec) error {
	r.ID = d.Varint()
	return d.Err()
}

// WireTag implements transport.WireMessage.
func (r *insertBatchReq) WireTag() uint8 { return wireTagInsertBatchReq }

// AppendWire implements transport.WireMessage.
func (r *insertBatchReq) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, r.Table)
	b = transport.AppendUvarint(b, uint64(len(r.Rows)))
	for _, row := range r.Rows {
		b = appendRow(b, row)
	}
	return b
}

// DecodeWire implements transport.WireMessage.
func (r *insertBatchReq) DecodeWire(d *transport.WireDec) error {
	r.Table = d.String()
	if n := d.ElemLen(1); n > 0 {
		r.Rows = make([]Row, n)
		for i := range r.Rows {
			r.Rows[i] = decodeRow(d)
		}
	}
	return d.Err()
}

// WireTag implements transport.WireMessage.
func (r *insertBatchResp) WireTag() uint8 { return wireTagInsertBatchResp }

// AppendWire implements transport.WireMessage.
func (r *insertBatchResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, uint64(len(r.IDs)))
	for _, id := range r.IDs {
		b = transport.AppendVarint(b, id)
	}
	return b
}

// DecodeWire implements transport.WireMessage.
func (r *insertBatchResp) DecodeWire(d *transport.WireDec) error {
	if n := d.ElemLen(1); n > 0 {
		r.IDs = make([]int64, n)
		for i := range r.IDs {
			r.IDs[i] = d.Varint()
		}
	}
	return d.Err()
}

// rowList is the store.select answer: a JSON array of rows on the legacy
// encoding, a counted list on the binary one.
type rowList []Row

// WireTag implements transport.WireMessage.
func (l *rowList) WireTag() uint8 { return wireTagRowList }

// AppendWire implements transport.WireMessage.
func (l *rowList) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, uint64(len(*l)))
	for _, row := range *l {
		b = appendRow(b, row)
	}
	return b
}

// DecodeWire implements transport.WireMessage. The list is never nil, as
// the JSON answer is never null.
func (l *rowList) DecodeWire(d *transport.WireDec) error {
	*l = make(rowList, d.ElemLen(1))
	for i := range *l {
		(*l)[i] = decodeRow(d)
	}
	return d.Err()
}
