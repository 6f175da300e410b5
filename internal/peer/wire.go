package peer

import (
	"encoding/json" // lint:allow — decodePayload: a Msg.Payload of a kind with no payload codec
	"fmt"

	"pricesheriff/internal/transport"
)

// Wire tags of this package (global registry; see transport.RegisterWire).
// Every page fetched through a PPC crosses the broker twice (request and
// response), so the relay envelope and its two payloads are firmly on the
// hot path.
const (
	wireTagMsg          = 12
	wireTagPageRequest  = 20
	wireTagPageResponse = 21
)

func init() {
	transport.RegisterWire(wireTagMsg, "peer.msg", func() transport.WireMessage { return new(Msg) })
	transport.RegisterWire(wireTagPageRequest, "peer.page_request", func() transport.WireMessage { return new(PageRequest) })
	transport.RegisterWire(wireTagPageResponse, "peer.page_response", func() transport.WireMessage { return new(PageResponse) })
}

// Msg field presence bits. Kind is always present.
const (
	msgHasFrom = 1 << iota
	msgHasTo
	msgHasReqID
	msgHasErr
	msgHasPayload // JSON payload bytes
	msgHasTraceID
	msgHasSpanID
	msgSampled
	_                // reserved (the retired JSON span blob), so the bits below keep their values
	msgHasBinPayload // [tag:1] + length-prefixed AppendWire bytes of the payload
	msgHasSpans      // binary span batch (transport.AppendSpans)
)

// WireTag implements transport.WireMessage.
func (m *Msg) WireTag() uint8 { return wireTagMsg }

// AppendWire implements transport.WireMessage. A typed payload is encoded
// in place; a binary payload that arrived on another connection (the
// broker's case) is copied through untouched.
func (m *Msg) AppendWire(b []byte) []byte {
	var flags uint64
	if m.From != "" {
		flags |= msgHasFrom
	}
	if m.To != "" {
		flags |= msgHasTo
	}
	if m.ReqID != 0 {
		flags |= msgHasReqID
	}
	if m.Err != "" {
		flags |= msgHasErr
	}
	if m.body != nil || m.binTag != 0 {
		flags |= msgHasBinPayload
	} else if len(m.Payload) > 0 {
		flags |= msgHasPayload
	}
	if m.TraceID != "" {
		flags |= msgHasTraceID
	}
	if m.SpanID != "" {
		flags |= msgHasSpanID
	}
	if m.Sampled {
		flags |= msgSampled
	}
	if len(m.Spans) > 0 {
		flags |= msgHasSpans
	}
	b = transport.AppendUvarint(b, flags)
	b = transport.AppendString(b, m.Kind)
	if flags&msgHasFrom != 0 {
		b = transport.AppendString(b, m.From)
	}
	if flags&msgHasTo != 0 {
		b = transport.AppendString(b, m.To)
	}
	if flags&msgHasReqID != 0 {
		b = transport.AppendUvarint(b, m.ReqID)
	}
	if flags&msgHasErr != 0 {
		b = transport.AppendString(b, m.Err)
	}
	if flags&msgHasPayload != 0 {
		b = transport.AppendBytes(b, m.Payload)
	}
	if flags&msgHasTraceID != 0 {
		b = transport.AppendString(b, m.TraceID)
	}
	if flags&msgHasSpanID != 0 {
		b = transport.AppendString(b, m.SpanID)
	}
	if flags&msgHasBinPayload != 0 {
		if m.body != nil {
			b = append(b, m.body.WireTag())
			b = transport.AppendSized(b, m.body.AppendWire)
		} else {
			b = append(b, m.binTag)
			b = transport.AppendBytes(b, m.binBody)
		}
	}
	if flags&msgHasSpans != 0 {
		b = transport.AppendSpans(b, m.Spans)
	}
	return b
}

// DecodeWire implements transport.WireMessage.
func (m *Msg) DecodeWire(d *transport.WireDec) error {
	flags := d.Uvarint()
	m.Kind = d.String()
	if flags&msgHasFrom != 0 {
		m.From = d.String()
	}
	if flags&msgHasTo != 0 {
		m.To = d.String()
	}
	if flags&msgHasReqID != 0 {
		m.ReqID = d.Uvarint()
	}
	if flags&msgHasErr != 0 {
		m.Err = d.String()
	}
	if flags&msgHasPayload != 0 {
		m.Payload = d.Bytes()
	}
	if flags&msgHasTraceID != 0 {
		m.TraceID = d.String()
	}
	if flags&msgHasSpanID != 0 {
		m.SpanID = d.String()
	}
	m.Sampled = flags&msgSampled != 0
	if flags&msgHasBinPayload != 0 {
		m.binTag = d.Byte()
		m.binBody = d.Bytes()
		if d.Err() == nil && m.binTag == 0 {
			d.Fail(fmt.Errorf("peer: msg binary payload with reserved tag 0"))
		}
	}
	if flags&msgHasSpans != 0 {
		m.Spans = d.Spans()
	}
	return d.Err()
}

// decodePayload stores the message's payload into dst, whichever encoding
// it arrived in. A binary payload decodes as a view of the frame copy the
// Msg itself was decoded from.
func (m *Msg) decodePayload(dst transport.WireMessage) error {
	if m.binTag == 0 {
		return json.Unmarshal(m.Payload, dst)
	}
	if m.binTag != dst.WireTag() {
		return fmt.Errorf("peer: %s payload has wire tag %d, want %d", m.Kind, m.binTag, dst.WireTag())
	}
	d := transport.NewWireDec(m.binBody)
	if err := dst.DecodeWire(d); err != nil {
		return err
	}
	return d.Err()
}

// WireTag implements transport.WireMessage.
func (r *PageRequest) WireTag() uint8 { return wireTagPageRequest }

// AppendWire implements transport.WireMessage.
func (r *PageRequest) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, r.URL)
	return transport.AppendFloat(b, r.Day)
}

// DecodeWire implements transport.WireMessage.
func (r *PageRequest) DecodeWire(d *transport.WireDec) error {
	r.URL = d.String()
	r.Day = d.Float()
	return d.Err()
}

// WireTag implements transport.WireMessage.
func (r *PageResponse) WireTag() uint8 { return wireTagPageResponse }

// AppendWire implements transport.WireMessage.
func (r *PageResponse) AppendWire(b []byte) []byte {
	b = transport.AppendVarint(b, int64(r.Status))
	b = transport.AppendString(b, r.HTML)
	b = transport.AppendString(b, r.Mode)
	return transport.AppendString(b, r.PeerID)
}

// DecodeWire implements transport.WireMessage.
func (r *PageResponse) DecodeWire(d *transport.WireDec) error {
	r.Status = int(d.Varint())
	r.HTML = d.String()
	r.Mode = d.String()
	r.PeerID = d.String()
	return d.Err()
}
