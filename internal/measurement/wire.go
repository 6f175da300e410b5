package measurement

import (
	"pricesheriff/internal/htmlx"
	"pricesheriff/internal/transport"
)

// Hand-written binary codecs for the measurement plane's hot frames: the
// price-check submit (carries the initiator's whole page copy, by far the
// largest frame in the system) and the results requests and answers. Each
// codec must mirror its struct's JSON shape exactly — crosscheck_test.go in
// the transport package round-trips every registered type through both
// encodings and fails on any divergence.

// Wire tags of this package (global registry; see transport.RegisterWire).
const (
	wireTagCheckRequest    = 1
	wireTagResultsReq      = 2
	wireTagResultsResponse = 3
)

func init() {
	transport.RegisterWire(wireTagCheckRequest, "ms.check_request", func() transport.WireMessage { return new(CheckRequest) })
	transport.RegisterWire(wireTagResultsReq, "ms.results_request", func() transport.WireMessage { return new(resultsReq) })
	transport.RegisterWire(wireTagResultsResponse, "ms.results_response", func() transport.WireMessage { return new(ResultsResponse) })
}

// WireTag implements transport.WireMessage.
func (r *CheckRequest) WireTag() uint8 { return wireTagCheckRequest }

// AppendWire implements transport.WireMessage.
func (r *CheckRequest) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, r.JobID)
	b = transport.AppendString(b, r.URL)
	b = transport.AppendUvarint(b, uint64(len(r.TagsPath.Steps)))
	for _, s := range r.TagsPath.Steps {
		b = transport.AppendString(b, s.Tag)
		b = transport.AppendVarint(b, int64(s.Index))
		b = transport.AppendString(b, s.Class)
		b = transport.AppendString(b, s.ID)
	}
	b = transport.AppendString(b, r.InitiatorHTML)
	b = transport.AppendString(b, r.InitiatorID)
	b = transport.AppendString(b, r.Currency)
	b = transport.AppendFloat(b, r.Day)
	b = transport.AppendString(b, r.TraceID)
	b = transport.AppendString(b, r.ParentSpanID)
	return transport.AppendString(b, r.Origin)
}

// DecodeWire implements transport.WireMessage.
func (r *CheckRequest) DecodeWire(d *transport.WireDec) error {
	r.JobID = d.String()
	r.URL = d.String()
	if n := d.ElemLen(4); n > 0 { // a step is ≥ 4 bytes on the wire
		r.TagsPath.Steps = make([]htmlx.Step, n)
		for i := range r.TagsPath.Steps {
			r.TagsPath.Steps[i] = htmlx.Step{
				Tag:   d.String(),
				Index: int(d.Varint()),
				Class: d.String(),
				ID:    d.String(),
			}
		}
	}
	r.InitiatorHTML = d.String()
	r.InitiatorID = d.String()
	r.Currency = d.String()
	r.Day = d.Float()
	r.TraceID = d.String()
	r.ParentSpanID = d.String()
	r.Origin = d.String()
	return d.Err()
}

// WireTag implements transport.WireMessage.
func (r *resultsReq) WireTag() uint8 { return wireTagResultsReq }

// AppendWire implements transport.WireMessage.
func (r *resultsReq) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, r.JobID)
	b = transport.AppendVarint(b, int64(r.Since))
	return transport.AppendBool(b, r.Wait)
}

// DecodeWire implements transport.WireMessage.
func (r *resultsReq) DecodeWire(d *transport.WireDec) error {
	r.JobID = d.String()
	r.Since = int(d.Varint())
	r.Wait = d.Bool()
	return d.Err()
}

// WireTag implements transport.WireMessage.
func (r *ResultsResponse) WireTag() uint8 { return wireTagResultsResponse }

// AppendWire implements transport.WireMessage.
func (r *ResultsResponse) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, uint64(len(r.Rows)))
	for i := range r.Rows {
		row := &r.Rows[i]
		b = transport.AppendString(b, row.Source)
		b = transport.AppendString(b, row.Kind)
		b = transport.AppendString(b, row.PeerID)
		b = transport.AppendString(b, row.Country)
		b = transport.AppendString(b, row.City)
		b = transport.AppendString(b, row.Original)
		b = transport.AppendString(b, row.Currency)
		b = transport.AppendFloat(b, row.Amount)
		b = transport.AppendFloat(b, row.Converted)
		b = transport.AppendString(b, row.Confidence)
		b = transport.AppendString(b, row.Mode)
		b = transport.AppendString(b, row.Err)
	}
	b = transport.AppendBool(b, r.Done)
	b = transport.AppendBytes(b, nil) // reserved slot (the retired JSON span blob), always empty
	// Spans ride only the Done answer of a sampled trace.
	if len(r.Spans) > 0 {
		b = transport.AppendSpans(b, r.Spans)
	}
	return b
}

// DecodeWire implements transport.WireMessage.
func (r *ResultsResponse) DecodeWire(d *transport.WireDec) error {
	if n := d.ElemLen(26); n > 0 { // a row is ≥ 26 bytes on the wire
		r.Rows = make([]ResultRow, n)
		for i := range r.Rows {
			row := &r.Rows[i]
			row.Source = d.String()
			row.Kind = d.String()
			row.PeerID = d.String()
			row.Country = d.String()
			row.City = d.String()
			row.Original = d.String()
			row.Currency = d.String()
			row.Amount = d.Float()
			row.Converted = d.Float()
			row.Confidence = d.String()
			row.Mode = d.String()
			row.Err = d.String()
		}
	}
	r.Done = d.Bool()
	d.Bytes() // the reserved slot
	if d.Remaining() > 0 {
		r.Spans = d.Spans()
	}
	return d.Err()
}
