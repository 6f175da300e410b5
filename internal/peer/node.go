package peer

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pricesheriff/internal/browser"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/transport"
)

// DoppDirectory resolves a peer's doppelganger: the Aggregator-side lookup
// of step 3.3 ("Doppelganger ID request") returning the bearer token, and
// the Coordinator-side redemption of step 3.4 returning the client state.
// Implementations also account the fetch against the doppelganger's
// pollution budget.
type DoppDirectory interface {
	// TokenFor returns the bearer token of the peer's assigned
	// doppelganger.
	TokenFor(peerID string) (string, error)
	// ClientState redeems the token for cookies and charges one fetch
	// against the given domain's budget.
	ClientState(token, domain string) (map[string]string, error)
}

// Node is a running Peer Proxy Client: a real user's browser connected to
// the P2P relay, serving remote page requests for other peers.
type Node struct {
	ID      string
	Browser *browser.Browser
	Fetcher shop.Fetcher
	Dopps   DoppDirectory // nil disables the doppelganger path
	// Metrics instruments page service; set it before Run (nil disables).
	Metrics *Metrics

	conn transport.Conn
	wg   sync.WaitGroup

	mu       sync.Mutex
	served   int
	modes    map[string]int // fetch mode -> count
	consents bool
}

// Connect dials the broker and registers the node; call Run to serve.
func Connect(netw transport.Network, brokerAddr string, id string, b *browser.Browser, f shop.Fetcher, dopps DoppDirectory) (*Node, error) {
	conn, err := connectAndRegister(netw, brokerAddr, id)
	if err != nil {
		return nil, err
	}
	return &Node{
		ID:       id,
		Browser:  b,
		Fetcher:  f,
		Dopps:    dopps,
		conn:     conn,
		modes:    make(map[string]int),
		consents: true, // joining the network is the consent action
	}, nil
}

// SetConsent toggles the user's informed consent (paper Sect. 2.3:
// "unless the user consents, the add-on is not activated"). A node
// without consent refuses remote page requests.
func (n *Node) SetConsent(v bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.consents = v
}

// Consents reports the current consent state.
func (n *Node) Consents() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.consents
}

// Run serves relay messages until the connection closes. Run it in a
// goroutine; each request is handled concurrently under a context that
// dies with the node, so in-flight sandbox fetches abort on disconnect.
func (n *Node) Run() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for {
		var m Msg
		if err := n.conn.Recv(&m); err != nil {
			cancel()
			n.wg.Wait()
			return
		}
		if m.Kind != KindPageReq {
			continue
		}
		req := m
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handlePageReq(ctx, req)
		}()
	}
}

func (n *Node) handlePageReq(ctx context.Context, m Msg) {
	// Join the requester's distributed trace: the sandboxed fetch runs
	// under a node-side span whose completed tree ships back on the
	// response frame.
	var rt *obs.Trace
	var hsp *obs.Span
	if m.TraceID != "" && m.Sampled {
		rt = obs.NewRemoteTrace(m.TraceID)
		hsp = rt.Span("ppc_fetch", "peer", n.ID)
		ctx = obs.WithSpan(ctx, hsp)
	}
	var req PageRequest
	resp := PageResponse{Status: 500, PeerID: n.ID}
	if err := m.decodePayload(&req); err == nil {
		resp = n.ServePage(ctx, &req)
	}
	if hsp != nil {
		hsp.Annotate("mode", resp.Mode)
		hsp.Annotate("status", fmt.Sprint(resp.Status))
		hsp.End()
	}
	out := &Msg{Kind: KindPageResp, To: m.From, ReqID: m.ReqID, body: &resp}
	if rt != nil {
		out.Spans = rt.Export(m.SpanID, "ppc")
	}
	n.conn.Send(out)
}

// ServePage executes one remote page request: pick the client-side state
// per the pollution budget (own → doppelganger → clean), fetch inside the
// sandbox, and report which mode served it. The context bounds the
// sandboxed fetch.
func (n *Node) ServePage(ctx context.Context, req *PageRequest) PageResponse {
	if !n.Consents() {
		n.Metrics.sandboxRejected()
		return PageResponse{Status: 403, PeerID: n.ID}
	}
	domain, _, err := shop.ParseProductURL(req.URL)
	if err != nil {
		n.Metrics.sandboxRejected()
		return PageResponse{Status: 400, PeerID: n.ID}
	}

	mode := "own"
	state := browser.StateOwn
	var doppCookies map[string]string
	if n.Browser.NeedsDoppelganger(domain) {
		if n.Dopps != nil {
			token, err := n.Dopps.TokenFor(n.ID)
			if err == nil {
				if cookies, err := n.Dopps.ClientState(token, domain); err == nil {
					mode = "doppelganger"
					state = browser.StateDoppelganger
					doppCookies = cookies
				}
			}
		}
		if mode == "own" {
			// No doppelganger available: fall back to a clean profile
			// rather than polluting the user further.
			mode = "clean"
			state = browser.StateClean
		}
	}

	fresp, err := n.Browser.SandboxFetch(ctx, n.Fetcher, req.URL, req.Day, state, doppCookies)
	if err != nil {
		return PageResponse{Status: 502, PeerID: n.ID}
	}
	n.mu.Lock()
	n.served++
	n.modes[mode]++
	n.mu.Unlock()
	n.Metrics.pageServed()
	return PageResponse{Status: fresp.Status, HTML: fresp.HTML, Mode: mode, PeerID: n.ID}
}

// Served returns how many remote requests this node has handled.
func (n *Node) Served() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.served
}

// ModeCounts returns per-mode service counts (own/doppelganger/clean).
func (n *Node) ModeCounts() map[string]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]int, len(n.modes))
	for k, v := range n.modes {
		out[k] = v
	}
	return out
}

// Close disconnects from the broker.
func (n *Node) Close() error { return n.conn.Close() }

// Requester sends remote page requests through the broker — the
// Measurement server's side of step 3.2.
type Requester struct {
	ID      string
	Timeout time.Duration // per-request kill timeout (paper: 2 minutes)

	conn    transport.Conn
	mu      sync.Mutex
	nextReq uint64
	pending map[uint64]chan Msg
	closed  bool
}

// NewRequester connects a requester to the broker.
func NewRequester(netw transport.Network, brokerAddr, id string, timeout time.Duration) (*Requester, error) {
	conn, err := connectAndRegister(netw, brokerAddr, id)
	if err != nil {
		return nil, err
	}
	r := &Requester{
		ID:      id,
		Timeout: timeout,
		conn:    conn,
		pending: make(map[uint64]chan Msg),
	}
	go r.readLoop()
	return r, nil
}

func (r *Requester) readLoop() {
	for {
		var m Msg
		if err := r.conn.Recv(&m); err != nil {
			r.mu.Lock()
			r.closed = true
			for id, ch := range r.pending {
				close(ch)
				delete(r.pending, id)
			}
			r.mu.Unlock()
			return
		}
		if m.Kind != KindPageResp && m.Kind != KindError {
			continue
		}
		r.mu.Lock()
		ch, ok := r.pending[m.ReqID]
		if ok {
			delete(r.pending, m.ReqID)
		}
		r.mu.Unlock()
		if ok {
			ch <- m
			close(ch)
		}
	}
}

// RequestPage asks the named PPC to fetch a page, waiting up to Timeout
// or until ctx dies, whichever comes first: a canceled check abandons its
// relay waits immediately instead of sitting out the 2-minute kill
// timeout. When the context carries a sampled span (obs.WithSpan), the
// relay round-trip runs under a child span, its identity rides the
// page_req frame, and the node-side spans on the response are stitched
// into the caller's trace.
func (r *Requester) RequestPage(ctx context.Context, peerID string, req *PageRequest) (*PageResponse, error) {
	var csp *obs.Span
	if sp := obs.SpanFrom(ctx); sp.Context().Sampled {
		csp = sp.Child("relay " + peerID)
		defer csp.End()
	}
	ch := make(chan Msg, 1)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		csp.EndErr(transport.ErrClosed)
		return nil, transport.ErrClosed
	}
	r.nextReq++
	reqID := r.nextReq
	r.pending[reqID] = ch
	r.mu.Unlock()

	out := &Msg{Kind: KindPageReq, To: peerID, ReqID: reqID, body: req}
	if sc := csp.Context(); sc.Valid() {
		out.TraceID, out.SpanID, out.Sampled = sc.TraceID, sc.SpanID, true
	}
	if err := r.conn.Send(out); err != nil {
		r.drop(reqID)
		csp.EndErr(err)
		return nil, err
	}

	timeout := r.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case m, ok := <-ch:
		if !ok {
			csp.EndErr(transport.ErrClosed)
			return nil, transport.ErrClosed
		}
		if m.Kind == KindError {
			err := fmt.Errorf("peer: %s", m.Err)
			csp.EndErr(err)
			return nil, err
		}
		if csp != nil {
			csp.Trace().ImportSpans(m.Spans)
		}
		var resp PageResponse
		if err := m.decodePayload(&resp); err != nil {
			csp.EndErr(err)
			return nil, err
		}
		return &resp, nil
	case <-timer.C:
		r.drop(reqID)
		err := fmt.Errorf("peer: request to %s after %v: %w", peerID, timeout, ErrRequestTimeout)
		csp.EndErr(err)
		return nil, err
	case <-ctx.Done():
		r.drop(reqID)
		err := fmt.Errorf("peer: request to %s: %w", peerID, context.Cause(ctx))
		csp.EndErr(err)
		return nil, err
	}
}

func (r *Requester) drop(reqID uint64) {
	r.mu.Lock()
	delete(r.pending, reqID)
	r.mu.Unlock()
}

// Close disconnects the requester.
func (r *Requester) Close() error { return r.conn.Close() }
