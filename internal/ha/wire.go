package ha

import (
	"bytes"

	"pricesheriff/internal/transport"
)

// Hand-written binary codecs for the replication protocol's hot frames.
// Heartbeats (empty AppendReq) dominate the control-plane frame rate, so
// both directions of vote and append avoid reflection entirely.

// Wire tags of this package (global registry; see transport.RegisterWire).
const (
	wireTagVoteReq    = 8
	wireTagVoteResp   = 9
	wireTagAppendReq  = 10
	wireTagAppendResp = 11
)

func init() {
	transport.RegisterWire(wireTagVoteReq, "ha.vote_request", func() transport.WireMessage { return new(VoteReq) })
	transport.RegisterWire(wireTagVoteResp, "ha.vote_response", func() transport.WireMessage { return new(VoteResp) })
	transport.RegisterWire(wireTagAppendReq, "ha.append_request", func() transport.WireMessage { return new(AppendReq) })
	transport.RegisterWire(wireTagAppendResp, "ha.append_response", func() transport.WireMessage { return new(AppendResp) })
}

// WireTag implements transport.WireMessage.
func (r *VoteReq) WireTag() uint8 { return wireTagVoteReq }

// AppendWire implements transport.WireMessage.
func (r *VoteReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, r.Term)
	b = transport.AppendString(b, r.Candidate)
	b = transport.AppendUvarint(b, r.LastIndex)
	return transport.AppendUvarint(b, r.LastTerm)
}

// DecodeWire implements transport.WireMessage.
func (r *VoteReq) DecodeWire(d *transport.WireDec) error {
	r.Term = d.Uvarint()
	r.Candidate = d.String()
	r.LastIndex = d.Uvarint()
	r.LastTerm = d.Uvarint()
	return d.Err()
}

// WireTag implements transport.WireMessage.
func (r *VoteResp) WireTag() uint8 { return wireTagVoteResp }

// AppendWire implements transport.WireMessage.
func (r *VoteResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, r.Term)
	return transport.AppendBool(b, r.Granted)
}

// DecodeWire implements transport.WireMessage.
func (r *VoteResp) DecodeWire(d *transport.WireDec) error {
	r.Term = d.Uvarint()
	r.Granted = d.Bool()
	return d.Err()
}

// WireTag implements transport.WireMessage.
func (r *AppendReq) WireTag() uint8 { return wireTagAppendReq }

// AppendWire implements transport.WireMessage.
func (r *AppendReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, r.Term)
	b = transport.AppendString(b, r.Leader)
	b = transport.AppendUvarint(b, r.PrevIndex)
	b = transport.AppendUvarint(b, r.PrevTerm)
	b = transport.AppendUvarint(b, uint64(len(r.Entries)))
	for _, e := range r.Entries {
		b = transport.AppendUvarint(b, e.Index)
		b = transport.AppendUvarint(b, e.Term)
		b = transport.AppendString(b, e.Cmd.Kind)
		b = transport.AppendBytes(b, e.Cmd.Data)
	}
	return transport.AppendUvarint(b, r.Commit)
}

// DecodeWire implements transport.WireMessage.
func (r *AppendReq) DecodeWire(d *transport.WireDec) error {
	r.Term = d.Uvarint()
	r.Leader = d.String()
	r.PrevIndex = d.Uvarint()
	r.PrevTerm = d.Uvarint()
	if n := d.ElemLen(4); n > 0 { // an entry is ≥ 4 bytes (two indices + kind + data lengths)
		r.Entries = make([]Entry, n)
		for i := range r.Entries {
			e := &r.Entries[i]
			e.Index = d.Uvarint()
			e.Term = d.Uvarint()
			e.Cmd.Kind = d.String()
			if data := d.Bytes(); len(data) > 0 {
				e.Cmd.Data = bytes.Clone(data) // the log outlives the frame
			}
		}
	}
	r.Commit = d.Uvarint()
	return d.Err()
}

// WireTag implements transport.WireMessage.
func (r *AppendResp) WireTag() uint8 { return wireTagAppendResp }

// AppendWire implements transport.WireMessage.
func (r *AppendResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, r.Term)
	b = transport.AppendBool(b, r.Ok)
	return transport.AppendUvarint(b, r.LastIndex)
}

// DecodeWire implements transport.WireMessage.
func (r *AppendResp) DecodeWire(d *transport.WireDec) error {
	r.Term = d.Uvarint()
	r.Ok = d.Bool()
	r.LastIndex = d.Uvarint()
	return d.Err()
}
