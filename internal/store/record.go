package store

import (
	"bytes"
	"fmt"

	"pricesheriff/internal/transport"
)

// The durable records: what internal/history's WAL logs per op and what
// the disk engine's run files hold per row, in the row codec the wire
// uses (wire.go).
//
// Op record layout:
//
//	byte    recordFormat
//	byte    kind (opKinds index)
//	string  table (uvarint length + bytes)
//	varint  id
//	row     presence byte, then uvarint count and count × (string key, value)
//	byte    spec presence; when 1: string name, string list index,
//	        string list unique, string engine (a list: uvarint count + strings)
//
// A record decodes to exactly what a JSON round trip of the Op gives: an
// empty row and empty spec lists come back nil, integers as float64.

// recordFormat is the first byte of every op record. It can never be '{',
// the first byte of the JSON records earlier builds logged.
const recordFormat = 1

var opKinds = [...]string{1: OpCreate, 2: OpInsert, 3: OpUpdate, 4: OpDelete}

func opKindCode(kind string) byte {
	for i, k := range opKinds {
		if i > 0 && k == kind {
			return byte(i)
		}
	}
	return 0 // never a valid kind: DecodeOp refuses it
}

// AppendRow appends r in the row codec.
func AppendRow(b []byte, r Row) []byte { return appendRow(b, r) }

// DecodeRow decodes a row written by AppendRow that fills data exactly.
// The row's strings are views of a private copy of data, never of data
// itself: a row decoded from a cached block or a segment buffer pins
// only its own bytes.
func DecodeRow(data []byte) (Row, error) {
	d := transport.NewWireDec(bytes.Clone(data))
	r := decodeRow(d)
	return r, decodeDone(d, "row")
}

// AppendOp appends op as one record.
func AppendOp(b []byte, op Op) []byte {
	b = append(b, recordFormat, opKindCode(op.Kind))
	b = transport.AppendString(b, op.Table)
	b = transport.AppendVarint(b, op.ID)
	if len(op.Row) == 0 {
		b = append(b, 0)
	} else {
		b = appendRow(b, op.Row)
	}
	if op.Spec == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = transport.AppendString(b, op.Spec.Name)
	b = appendStrings(b, op.Spec.Index)
	b = appendStrings(b, op.Spec.Unique)
	return transport.AppendString(b, op.Spec.Engine)
}

// DecodeOp decodes one record written by AppendOp that fills data
// exactly; decoded strings are views of a private copy of data (see
// DecodeRow). Arbitrary bytes return an error, never a panic.
func DecodeOp(data []byte) (Op, error) {
	d := transport.NewWireDec(bytes.Clone(data))
	if f := d.Byte(); d.Err() == nil && f != recordFormat {
		return Op{}, fmt.Errorf("store: unknown record format %d", f)
	}
	var op Op
	if k := d.Byte(); int(k) < len(opKinds) && k > 0 {
		op.Kind = opKinds[k]
	} else if d.Err() == nil {
		return Op{}, fmt.Errorf("store: unknown op kind %d", k)
	}
	op.Table = d.String()
	op.ID = d.Varint()
	op.Row = decodeRow(d)
	if d.Byte() == 1 {
		op.Spec = &TableSpec{Name: d.String()}
		op.Spec.Index = decodeStrings(d)
		op.Spec.Unique = decodeStrings(d)
		op.Spec.Engine = d.String()
	}
	if err := decodeDone(d, "op record"); err != nil {
		return Op{}, err
	}
	return op, nil
}

// decodeDone reports the decoder's error, or trailing bytes after what
// was decoded.
func decodeDone(d *transport.WireDec, what string) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("store: decode %s: %w", what, err)
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("store: decode %s: %d trailing bytes", what, n)
	}
	return nil
}

func appendStrings(b []byte, l []string) []byte {
	b = transport.AppendUvarint(b, uint64(len(l)))
	for _, s := range l {
		b = transport.AppendString(b, s)
	}
	return b
}

func decodeStrings(d *transport.WireDec) []string {
	n := d.ElemLen(1)
	if n == 0 {
		return nil
	}
	l := make([]string, n)
	for i := range l {
		l[i] = d.String()
	}
	return l
}
