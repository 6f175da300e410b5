package coordinator

import (
	"pricesheriff/internal/transport"
)

// Hand-written binary codecs for the coordinator's hot frames: job
// creation (one per price check), job completion, the job-reference
// lookup and the PPC list it answers with, and the per-server heartbeat
// stream.

// Wire tags of this package (global registry; see transport.RegisterWire).
const (
	wireTagNewJobReq    = 13
	wireTagNewJobResp   = 14
	wireTagHeartbeatReq = 15
	wireTagJobRef       = 16
	wireTagRingState    = 17
	wireTagPeerList     = 22
)

func init() {
	transport.RegisterWire(wireTagNewJobReq, "coord.newjob_request", func() transport.WireMessage { return new(NewJobReq) })
	transport.RegisterWire(wireTagNewJobResp, "coord.newjob_response", func() transport.WireMessage { return new(NewJobResp) })
	transport.RegisterWire(wireTagHeartbeatReq, "coord.heartbeat_request", func() transport.WireMessage { return new(HeartbeatReq) })
	transport.RegisterWire(wireTagJobRef, "coord.job_ref", func() transport.WireMessage { return new(JobRef) })
	transport.RegisterWire(wireTagRingState, "coord.ring_state", func() transport.WireMessage { return new(RingState) })
	transport.RegisterWire(wireTagPeerList, "coord.peer_list", func() transport.WireMessage { return new(PeerList) })
}

// WireTag implements transport.WireMessage.
func (r *NewJobReq) WireTag() uint8 { return wireTagNewJobReq }

// AppendWire implements transport.WireMessage.
func (r *NewJobReq) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, r.Domain)
	b = transport.AppendString(b, r.InitiatorID)
	b = transport.AppendString(b, r.Key)
	return transport.AppendBool(b, r.Fresh)
}

// DecodeWire implements transport.WireMessage. The key and the fresh flag
// trail the frame: a request that ends before them is an unkeyed NewJob.
func (r *NewJobReq) DecodeWire(d *transport.WireDec) error {
	r.Domain = d.String()
	r.InitiatorID = d.String()
	if d.Remaining() > 0 {
		r.Key = d.String()
		r.Fresh = d.Bool()
	}
	return d.Err()
}

// WireTag implements transport.WireMessage.
func (r *NewJobResp) WireTag() uint8 { return wireTagNewJobResp }

// AppendWire implements transport.WireMessage.
func (r *NewJobResp) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, r.JobID)
	b = transport.AppendString(b, r.ServerAddr)
	b = transport.AppendString(b, r.Source)
	return transport.AppendVarint(b, r.AgeMS)
}

// DecodeWire implements transport.WireMessage. Source and age trail the
// frame: an answer that ends before them is a fresh job.
func (r *NewJobResp) DecodeWire(d *transport.WireDec) error {
	r.JobID = d.String()
	r.ServerAddr = d.String()
	if d.Remaining() > 0 {
		r.Source = d.String()
		r.AgeMS = d.Varint()
	}
	return d.Err()
}

// WireTag implements transport.WireMessage.
func (r *HeartbeatReq) WireTag() uint8 { return wireTagHeartbeatReq }

// AppendWire implements transport.WireMessage.
func (r *HeartbeatReq) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, r.Addr)
	b = transport.AppendVarint(b, int64(r.Pending))
	return transport.AppendBool(b, r.Shedding)
}

// DecodeWire implements transport.WireMessage.
func (r *HeartbeatReq) DecodeWire(d *transport.WireDec) error {
	r.Addr = d.String()
	r.Pending = int(d.Varint())
	r.Shedding = d.Bool()
	return d.Err()
}

// WireTag implements transport.WireMessage.
func (r *JobRef) WireTag() uint8 { return wireTagJobRef }

// AppendWire implements transport.WireMessage.
func (r *JobRef) AppendWire(b []byte) []byte {
	return transport.AppendString(b, r.JobID)
}

// DecodeWire implements transport.WireMessage.
func (r *JobRef) DecodeWire(d *transport.WireDec) error {
	r.JobID = d.String()
	return d.Err()
}

// WireTag implements transport.WireMessage.
func (r *RingState) WireTag() uint8 { return wireTagRingState }

// AppendWire implements transport.WireMessage.
func (r *RingState) AppendWire(b []byte) []byte {
	b = transport.AppendVarint(b, r.Version)
	return transport.AppendBytes(b, r.Ring)
}

// DecodeWire implements transport.WireMessage.
func (r *RingState) DecodeWire(d *transport.WireDec) error {
	r.Version = d.Varint()
	r.Ring = append([]byte(nil), d.Bytes()...)
	return d.Err()
}

// PeerList is the coord.job_ppcs answer: a JSON array of PeerInfo on the
// legacy encoding, a counted list on the binary one.
type PeerList []PeerInfo

// WireTag implements transport.WireMessage.
func (l *PeerList) WireTag() uint8 { return wireTagPeerList }

// AppendWire implements transport.WireMessage.
func (l *PeerList) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, uint64(len(*l)))
	for i := range *l {
		p := &(*l)[i]
		b = transport.AppendString(b, p.ID)
		b = transport.AppendString(b, p.IP)
		b = transport.AppendString(b, p.Country)
		b = transport.AppendString(b, p.Region)
		b = transport.AppendString(b, p.City)
	}
	return b
}

// DecodeWire implements transport.WireMessage. The list is never nil, as
// the JSON answer is never null.
func (l *PeerList) DecodeWire(d *transport.WireDec) error {
	*l = make(PeerList, d.ElemLen(5)) // a peer is ≥ 5 bytes (five length prefixes)
	for i := range *l {
		p := &(*l)[i]
		p.ID = d.String()
		p.IP = d.String()
		p.Country = d.String()
		p.Region = d.String()
		p.City = d.String()
	}
	return d.Err()
}
