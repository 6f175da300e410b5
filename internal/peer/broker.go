// Package peer implements the Price $heriff's peer-to-peer layer: a
// signaling/relay broker standing in for the webRTC/peerjs channels of the
// deployed add-on (paper Sect. 10.2.2), and the Peer Proxy Client (PPC)
// node that serves remote page requests with sandboxing, pollution
// budgeting and doppelganger state swapping (Sects. 3.2 and 3.6).
//
// Every node — PPCs and Measurement servers alike — connects to the broker
// with a persistent framed connection and registers an ID. Messages are
// addressed by peer ID and relayed; the broker never inspects payloads.
// Crucially for privacy, a PPC only ever learns that *someone* asked it to
// fetch a page: requests carry no initiator identity (Sect. 3.2: "they
// never learn an association between a unique peer identifier and the
// pages the peer visits").
package peer

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"pricesheriff/internal/obs"
	"pricesheriff/internal/transport"
)

// Msg is the relay envelope. Trace context rides page_req frames the
// same way it rides transport.Envelope: TraceID/SpanID/Sampled name the
// requester's span, and the serving node's completed spans travel back
// on the page_resp frame in Spans. The trace fields carry no user
// identity — only opaque IDs minted by the requesting process — so the
// privacy property of the relay (a PPC never learns who initiated a
// fetch) is preserved.
type Msg struct {
	Kind    string          `json:"kind"` // register | page_req | page_resp | error
	From    string          `json:"from,omitempty"`
	To      string          `json:"to,omitempty"`
	ReqID   uint64          `json:"req_id,omitempty"`
	Err     string          `json:"err,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
	TraceID string          `json:"tid,omitempty"`   // page_req: distributed trace ID
	SpanID  string          `json:"sid,omitempty"`   // page_req: requester's span
	Sampled bool            `json:"smp,omitempty"`   // page_req: sampling bit
	Spans   []obs.WireSpan  `json:"spans,omitempty"` // page_resp: exported node-side spans

	// Binary payload state (unexported; the counterpart of
	// transport.Envelope's): body is an outgoing typed payload, encoded in
	// place by AppendWire; binTag/binBody hold an inbound binary payload —
	// a view of the frame copy — that decodePayload reads and the broker
	// relays untouched.
	body    transport.WireMessage
	binTag  uint8
	binBody []byte
}

// Message kinds.
const (
	KindRegister = "register"
	KindPageReq  = "page_req"
	KindPageResp = "page_resp"
	KindError    = "error"
)

// PageRequest asks a PPC to fetch a product page. It deliberately carries
// no information about the initiating user.
type PageRequest struct {
	URL string  `json:"url"`
	Day float64 `json:"day"`
}

// PageResponse is the PPC's answer.
type PageResponse struct {
	Status int    `json:"status"`
	HTML   string `json:"html,omitempty"`
	// Mode reports which client-side state served the fetch:
	// "own", "doppelganger", or "clean".
	Mode string `json:"mode,omitempty"`
	// PeerID identifies the serving proxy for the measurement record.
	PeerID string `json:"peer_id,omitempty"`
}

// Broker relays messages between registered nodes.
type Broker struct {
	// Metrics instruments relay sessions and traffic; set it before Serve
	// (nil disables).
	Metrics *Metrics
	// Log records session and relay events; set it before Serve (nil
	// disables).
	Log *obs.Logger

	lis transport.Listener

	mu    sync.Mutex
	conns map[string]transport.Conn
	done  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

// NewBroker creates a broker on the listener; call Serve to start.
func NewBroker(lis transport.Listener) *Broker {
	return &Broker{lis: lis, conns: make(map[string]transport.Conn), done: make(chan struct{})}
}

// Addr returns the dialable broker address.
func (b *Broker) Addr() string { return b.lis.Addr() }

// Serve accepts node connections until Close.
func (b *Broker) Serve() error {
	for {
		conn, err := b.lis.Accept()
		if err != nil {
			select {
			case <-b.done:
				return nil
			default:
				return err
			}
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.serveConn(conn)
		}()
	}
}

func (b *Broker) serveConn(conn transport.Conn) {
	defer conn.Close()
	// First frame must be a registration.
	var reg Msg
	if err := conn.Recv(&reg); err != nil || reg.Kind != KindRegister || reg.From == "" {
		conn.Send(&Msg{Kind: KindError, Err: "registration required"})
		return
	}
	id := reg.From
	b.mu.Lock()
	if _, taken := b.conns[id]; taken {
		b.mu.Unlock()
		conn.Send(&Msg{Kind: KindError, Err: "peer id already registered"})
		return
	}
	b.conns[id] = conn
	b.mu.Unlock()
	b.Metrics.sessionOpened()
	b.Log.Debug(context.Background(), "relay session opened", "peer", id)
	conn.Send(&Msg{Kind: KindRegister, To: id}) // ack

	defer func() {
		b.mu.Lock()
		delete(b.conns, id)
		b.mu.Unlock()
		b.Metrics.sessionClosed()
		b.Log.Debug(context.Background(), "relay session closed", "peer", id)
	}()

	for {
		var m Msg
		if err := conn.Recv(&m); err != nil {
			return
		}
		m.From = id // the broker authenticates the sender
		b.mu.Lock()
		dst, ok := b.conns[m.To]
		b.mu.Unlock()
		if !ok {
			b.Metrics.relayError()
			b.Log.Warn(context.Background(), "relay target offline", "from", id, "to", m.To)
			conn.Send(&Msg{Kind: KindError, To: id, ReqID: m.ReqID, Err: fmt.Sprintf("peer %q not connected", m.To)})
			continue
		}
		if err := dst.Send(&m); err != nil {
			b.Metrics.relayError()
			b.Log.Warn(context.Background(), "relay delivery failed", "from", id, "to", m.To, "err", err.Error())
			conn.Send(&Msg{Kind: KindError, To: id, ReqID: m.ReqID, Err: "delivery failed"})
			continue
		}
		b.Metrics.messageRelayed()
	}
}

// Connected returns the IDs of currently connected nodes.
func (b *Broker) Connected() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.conns))
	for id := range b.conns {
		out = append(out, id)
	}
	return out
}

// Close stops the broker and disconnects everyone.
func (b *Broker) Close() error {
	b.once.Do(func() {
		close(b.done)
		b.lis.Close()
		b.mu.Lock()
		for _, c := range b.conns {
			c.Close()
		}
		b.mu.Unlock()
	})
	return nil
}

// ErrNotConnected is returned when the relay target is offline.
var ErrNotConnected = errors.New("peer: target not connected")

// ErrRequestTimeout marks a remote page request killed by the PPC timeout
// budget (paper: 2 minutes); match with errors.Is.
var ErrRequestTimeout = errors.New("peer: request timed out")

// connectAndRegister dials the broker and registers an ID.
func connectAndRegister(netw transport.Network, addr, id string) (transport.Conn, error) {
	conn, err := netw.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(&Msg{Kind: KindRegister, From: id}); err != nil {
		conn.Close()
		return nil, err
	}
	var ack Msg
	if err := conn.Recv(&ack); err != nil {
		conn.Close()
		return nil, err
	}
	if ack.Kind != KindRegister {
		conn.Close()
		return nil, fmt.Errorf("peer: registration rejected: %s", ack.Err)
	}
	return conn, nil
}
