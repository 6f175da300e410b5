package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"pricesheriff/internal/obs"
)

// ErrCallTimeout marks an RPC that exceeded its deadline; match with
// errors.Is (mirroring peer.ErrRequestTimeout on the P2P side). Under the
// multiplexed protocol a timed-out call abandons only its own call ID —
// the shared connection stays healthy and a late response is dropped by
// the read loop, so concurrent calls on the same conn are unaffected.
var ErrCallTimeout = errors.New("transport: call timed out")

// Wire error codes carried in Envelope.Code so typed errors keep their
// identity across the RPC boundary (see RPCCoder).
const (
	CodeDeadline = "deadline"
	CodeCanceled = "canceled"
	// CodeNotPrimary marks a control-plane call that reached a coordinator
	// replica without the primary lease; the response's Hint carries the
	// believed primary so cluster clients can fail over directly.
	CodeNotPrimary = "not_primary"
)

// ErrNotPrimary is the matchable identity of a CodeNotPrimary rejection:
// errors.Is(err, transport.ErrNotPrimary) holds on the caller's side of
// the wire for any handler error that carried the code.
var ErrNotPrimary error = &notPrimaryError{}

type notPrimaryError struct{}

func (*notPrimaryError) Error() string   { return "transport: not the primary" }
func (*notPrimaryError) RPCCode() string { return CodeNotPrimary }

// RPCCoder is implemented by application errors that must stay matchable
// with errors.Is on the far side of an RPC: the server puts RPCCode into
// Envelope.Code and the client's RemoteError compares codes in Is. The
// admission layer's ErrOverload is the canonical example.
type RPCCoder interface{ RPCCode() string }

// RPCHinter is implemented by application errors that carry a redirect
// target along with their code — the canonical case is a NotPrimary
// rejection naming the replica that does hold the lease. The server puts
// RPCHint into Envelope.Hint and the client's RemoteError preserves it
// for the failover machinery.
type RPCHinter interface{ RPCHint() string }

// errorHint derives the redirect hint for a handler error.
func errorHint(err error) string {
	var rh RPCHinter
	if errors.As(err, &rh) {
		return rh.RPCHint()
	}
	return ""
}

// errorCode derives the wire code for a handler error.
func errorCode(err error) string {
	var rc RPCCoder
	if errors.As(err, &rc) {
		return rc.RPCCode()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return CodeDeadline
	}
	if errors.Is(err, context.Canceled) {
		return CodeCanceled
	}
	return ""
}

// Envelope is the wire format of one RPC request or response. The call ID
// multiplexes many in-flight calls over one connection: responses are
// matched to requests by ID, a request with Cancel set aborts the named
// in-flight call on the server, and DeadlineMS carries the caller's
// remaining budget so the server-side handler context expires in step
// with the client. Trace context rides the request header the same way:
// TraceID/SpanID/Sampled name the caller's current span, the server runs
// the handler under a child span, and the completed remote spans travel
// back in the response's Spans for the caller to stitch into its trace.
// ID 0 is reserved for legacy lock-step callers.
type Envelope struct {
	T          string          `json:"t"`               // method name
	ID         uint64          `json:"id,omitempty"`    // call ID (mux key)
	Body       json.RawMessage `json:"body,omitempty"`  // request or response payload
	Cancel     bool            `json:"c,omitempty"`     // request-only: abort call ID
	DeadlineMS int64           `json:"dl,omitempty"`    // request-only: remaining budget
	TraceID    string          `json:"tid,omitempty"`   // request-only: distributed trace ID
	SpanID     string          `json:"sid,omitempty"`   // request-only: caller's span (parent of the handler span)
	Sampled    bool            `json:"smp,omitempty"`   // request-only: trace sampling bit
	Err        string          `json:"err,omitempty"`   // response-only error text
	Code       string          `json:"code,omitempty"`  // response-only machine-readable error code
	Hint       string          `json:"hint,omitempty"`  // response-only redirect hint (see RPCHinter)
	Spans      []obs.WireSpan  `json:"spans,omitempty"` // response-only: exported handler-side spans

	// Typed-body state. wmsg is a pending outgoing typed body, encoded
	// inline by appendEnvelope; binTag/binBody hold an inbound binary body
	// awaiting its typed decode (a view of the frame's private copy), or a
	// pre-encoded outgoing request body living in the pooled bodyBuf until
	// releaseBody.
	wmsg    WireMessage
	binTag  uint8
	binBody []byte
	bodyBuf *[]byte
}

// releaseBody recycles a pre-encoded request body once the frame carrying
// it has been written.
func (e *Envelope) releaseBody() {
	if e.bodyBuf != nil {
		putBuf(e.bodyBuf)
		e.bodyBuf, e.binBody = nil, nil
	}
}

// Handler serves one RPC method: it unmarshals its own request type from
// raw and returns a response value (marshalled by the server) or an error
// (sent back as Envelope.Err). Legacy form without a context; new code
// should use HandlerCtx.
type Handler func(raw json.RawMessage) (any, error)

// HandlerCtx is a context-aware method handler. The context is canceled
// when the caller's deadline (propagated in the wire header) expires,
// when the caller sends an explicit cancel frame, or when the connection
// or server shuts down — so a handler that honors ctx stops doing work
// the moment nobody wants the answer anymore.
type HandlerCtx func(ctx context.Context, raw json.RawMessage) (any, error)

// WireHandler serves one RPC method from its already-decoded binary
// request body, skipping the JSON round-trip entirely. Methods usually get
// one via HandleTyped rather than registering a WireHandler directly.
type WireHandler func(ctx context.Context, msg WireMessage) (any, error)

// Server dispatches framed RPC requests to registered handlers. Each
// accepted connection is served by its own read loop and each request by
// its own goroutine, so one connection carries many concurrent calls
// (the mux protocol); responses are matched to requests by call ID.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]HandlerCtx
	wired    map[string]WireHandler
	conns    map[Conn]bool
	lis      Listener
	wg       sync.WaitGroup
	done     chan struct{}
	once     sync.Once
	metrics  *Metrics
	base     context.Context
	stop     context.CancelFunc
	proc     string
}

// MetricsSource is implemented by listeners that can report the metric
// bundle of their fabric; NewServer uses it to drive the RPC in-flight
// gauge without extra wiring. Both built-in fabrics implement it, and
// the chaos fabric forwards it.
type MetricsSource interface{ TransportMetrics() *Metrics }

// NewServer creates a server bound to the listener; call Handle or
// HandleCtx to register methods, then Serve (usually in a goroutine).
func NewServer(lis Listener) *Server {
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		handlers: make(map[string]HandlerCtx),
		wired:    make(map[string]WireHandler),
		conns:    make(map[Conn]bool),
		lis:      lis,
		done:     make(chan struct{}),
		base:     base,
		stop:     stop,
	}
	if ms, ok := lis.(MetricsSource); ok {
		s.metrics = ms.TransportMetrics()
	}
	return s
}

// Handle registers a legacy context-free handler; it must be called
// before Serve.
func (s *Server) Handle(method string, h Handler) {
	s.HandleCtx(method, func(_ context.Context, raw json.RawMessage) (any, error) {
		return h(raw)
	})
}

// HandleCtx registers a context-aware handler; it must be called before
// Serve.
func (s *Server) HandleCtx(method string, h HandlerCtx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// HandleWireCtx registers a binary-body handler alongside the method's
// JSON handler; it must be called before Serve. A method with only a wire
// handler rejects JSON bodies.
func (s *Server) HandleWireCtx(method string, h WireHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wired[method] = h
}

// HandleTyped registers one typed handler serving both encodings of a
// method: binary bodies (when *Req implements WireMessage) dispatch with
// no JSON round-trip, JSON bodies unmarshal into a fresh *Req. This is
// the standard registration for hot-path methods.
func HandleTyped[Req any](s *Server, method string, h func(ctx context.Context, req *Req) (any, error)) {
	s.HandleCtx(method, func(ctx context.Context, raw json.RawMessage) (any, error) {
		req := new(Req)
		if len(raw) > 0 {
			if err := json.Unmarshal(raw, req); err != nil {
				return nil, fmt.Errorf("unmarshal %s request: %w", method, err)
			}
		}
		return h(ctx, req)
	})
	s.HandleWireCtx(method, func(ctx context.Context, msg WireMessage) (any, error) {
		req, ok := any(msg).(*Req)
		if !ok {
			return nil, fmt.Errorf("%s: binary body decoded to %T", method, msg)
		}
		return h(ctx, req)
	})
}

// SetProc names the process hosting this server ("coordinator",
// "measurement", ...). Handler-side spans of sampled distributed traces
// are stamped with it, so a stitched trace shows which process ran each
// hop. Call before Serve.
func (s *Server) SetProc(name string) {
	s.mu.Lock()
	s.proc = name
	s.mu.Unlock()
}

// Addr returns the dialable address of the server.
func (s *Server) Addr() string { return s.lis.Addr() }

// Serve accepts connections until Close; it returns after the listener
// stops. Always returns nil after a clean Close.
func (s *Server) Serve() error {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
				return err
			}
		}
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.serveConn(conn)
		}()
	}
}

// serveConn reads frames and fans each request out to its own goroutine.
// Per-call contexts descend from a per-connection context (canceled when
// the connection or server dies) and expire at the caller's propagated
// deadline; cancel frames abort the matching in-flight call.
func (s *Server) serveConn(conn Conn) {
	connCtx, connCancel := context.WithCancel(s.base)
	defer connCancel()
	var (
		mu       sync.Mutex
		inflight = make(map[uint64]context.CancelCauseFunc)
	)
	for {
		var req Envelope
		if err := conn.Recv(&req); err != nil {
			return
		}
		if req.Cancel {
			mu.Lock()
			if abort, ok := inflight[req.ID]; ok {
				abort(context.Canceled)
			}
			mu.Unlock()
			continue
		}
		hctx, abort := context.WithCancelCause(connCtx)
		dcancel := context.CancelFunc(func() {})
		if req.DeadlineMS > 0 {
			dl := time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
			hctx, dcancel = context.WithDeadline(hctx, dl)
		}
		if req.ID != 0 {
			mu.Lock()
			inflight[req.ID] = abort
			mu.Unlock()
		}
		s.metrics.callStart()
		go func(req Envelope, hctx context.Context) {
			defer func() {
				if req.ID != 0 {
					mu.Lock()
					delete(inflight, req.ID)
					mu.Unlock()
				}
				dcancel()
				abort(nil)
				s.metrics.callEnd()
			}()
			conn.Send(s.dispatch(hctx, &req))
		}(req, hctx)
	}
}

// dispatch runs the handler for one request and builds the response.
// Binary request bodies decode through the wire registry and reach the
// method's WireHandler directly when one is registered (JSON-round-trip
// through the legacy handler otherwise); a typed response value rides
// back binary-encoded. When the request carries sampled trace context, the
// handler runs under a server-side span in a remote trace joined to the
// caller's trace ID; the completed remote spans ship back on the response
// for the caller to stitch in.
func (s *Server) dispatch(ctx context.Context, req *Envelope) *Envelope {
	s.mu.RLock()
	h, ok := s.handlers[req.T]
	wh := s.wired[req.T]
	proc := s.proc
	s.mu.RUnlock()
	resp := &Envelope{T: req.T, ID: req.ID}
	if !ok && wh == nil {
		resp.Err = fmt.Sprintf("unknown method %q", req.T)
		return resp
	}
	var rt *obs.Trace
	var hsp *obs.Span
	if req.TraceID != "" && req.Sampled {
		rt = obs.NewRemoteTrace(req.TraceID)
		hsp = rt.Span(req.T)
		if proc != "" {
			hsp.Annotate("proc", proc)
		}
		ctx = obs.WithSpan(ctx, hsp)
	}
	var out any
	var err error
	switch {
	case req.binTag != 0:
		var msg WireMessage
		if msg, err = decodeRegistered(req.binTag, req.binBody); err == nil {
			if wh != nil {
				out, err = wh(ctx, msg)
			} else {
				// No wire-aware handler: re-marshal the decoded body for
				// the legacy JSON handler so old methods keep working.
				var body []byte
				if body, err = json.Marshal(msg); err == nil {
					out, err = h(ctx, body)
				}
			}
		}
	case h != nil:
		out, err = h(ctx, req.Body)
	default:
		err = fmt.Errorf("method %q accepts only binary bodies", req.T)
	}
	if err != nil {
		hsp.EndErr(err)
		if rt != nil {
			resp.Spans = rt.Export(req.SpanID, proc)
		}
		resp.Err = err.Error()
		resp.Code = errorCode(err)
		resp.Hint = errorHint(err)
		return resp
	}
	hsp.End()
	if rt != nil {
		resp.Spans = rt.Export(req.SpanID, proc)
	}
	if out != nil {
		if wm, isWM := out.(WireMessage); isWM {
			// Encoded inline by appendEnvelope during Send — the handler
			// goroutine owns the value until the frame is written.
			resp.wmsg = wm
		} else if body, merr := json.Marshal(out); merr != nil {
			resp.Err = fmt.Sprintf("marshal response: %v", merr)
		} else {
			resp.Body = body
		}
	}
	return resp
}

// Close stops the server: the listener closes, in-flight handler contexts
// are canceled, and every active connection is torn down (a closed server
// must look dead to its clients, so pools can detect the failure and
// re-dial after a restart).
func (s *Server) Close() error {
	s.once.Do(func() {
		close(s.done)
		s.stop()
		s.lis.Close()
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
	})
	return nil
}

// Client issues RPCs over one multiplexed connection: any number of
// goroutines may call concurrently, responses are matched by call ID,
// and a call abandoned at its deadline leaves the shared connection
// healthy (the late response is dropped by ID). Use a Pool when you want
// several connections.
type Client struct {
	conn Conn

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *Envelope
	broken  bool
}

// DialClient connects a client to an RPC server and starts its read loop.
func DialClient(net Network, addr string) (*Client, error) {
	conn, err := net.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, pending: make(map[uint64]chan *Envelope)}
	go c.readLoop()
	return c, nil
}

// readLoop is the single reader of the connection: it routes every
// response to the pending call with the matching ID. Responses whose
// call already gave up (deadline or cancel) have no pending entry and
// are dropped. A receive error breaks the client and fails all pending
// calls.
func (c *Client) readLoop() {
	for {
		var env Envelope
		if err := c.conn.Recv(&env); err != nil {
			c.mu.Lock()
			c.broken = true
			for id, ch := range c.pending {
				delete(c.pending, id)
				close(ch)
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[env.ID]
		delete(c.pending, env.ID)
		c.mu.Unlock()
		if ok {
			ch <- &env
		}
	}
}

// CallCtx invokes method with req, storing the response into resp (which
// may be nil for methods without results). The context bounds the whole
// call: its deadline travels in the wire header so the server-side
// handler context expires in step, and cancelation sends an explicit
// cancel frame so the server aborts the handler instead of computing an
// answer nobody will read. A deadline expiry matches both ErrCallTimeout
// and context.DeadlineExceeded; a cancelation matches context.Canceled.
// A non-empty server error becomes a *RemoteError.
//
// When the context carries a sampled current span (obs.WithSpan), the
// call runs under a client-side child span, its identity travels in the
// wire header, and handler-side spans returned on the response are
// stitched into the caller's trace.
func (c *Client) CallCtx(ctx context.Context, method string, req, resp any) error {
	sp := obs.SpanFrom(ctx)
	if sc := sp.Context(); !sc.Valid() || !sc.Sampled {
		return c.callCtx(ctx, method, req, resp, nil)
	}
	csp := sp.Child("rpc " + method)
	err := c.callCtx(ctx, method, req, resp, csp)
	csp.EndErr(err)
	return err
}

// callCtx is the body of CallCtx; csp, when non-nil, is the client-side
// span whose identity is propagated on the wire.
func (c *Client) callCtx(ctx context.Context, method string, req, resp any, csp *obs.Span) error {
	if ctx.Err() != nil {
		return callCtxErr(method, ctx)
	}
	env := &Envelope{T: method}
	if sc := csp.Context(); sc.Valid() {
		env.TraceID, env.SpanID, env.Sampled = sc.TraceID, sc.SpanID, true
	}
	if req != nil {
		if wm, ok := req.(WireMessage); ok {
			// Pre-encode synchronously: the send may be abandoned at the
			// caller's deadline while the write goroutine keeps going, so
			// the envelope must not alias caller-owned memory by then. The
			// body goes into a pooled buffer (a batch of HTML rows would
			// otherwise double its way up from nothing) that the write
			// goroutine — which always finishes the write, abandoned call
			// or not — releases.
			env.binTag = wm.WireTag()
			env.bodyBuf = getBuf()
			*env.bodyBuf = wm.AppendWire(*env.bodyBuf)
			env.binBody = *env.bodyBuf
		} else {
			body, err := json.Marshal(req)
			if err != nil {
				return fmt.Errorf("transport: marshal request: %w", err)
			}
			env.Body = body
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		env.DeadlineMS = ms
	}
	c.mu.Lock()
	if c.broken {
		c.mu.Unlock()
		env.releaseBody()
		return ErrClosed
	}
	c.nextID++
	id := c.nextID
	ch := make(chan *Envelope, 1)
	c.pending[id] = ch
	c.mu.Unlock()
	env.ID = id

	// Send from a goroutine so a wedged write (chaos hang, full buffer)
	// cannot outlive the caller's budget.
	sent := make(chan error, 1)
	go func() {
		err := c.conn.Send(env)
		env.releaseBody()
		sent <- err
	}()
	select {
	case err := <-sent:
		if err != nil {
			c.drop(id)
			c.breakConn()
			return err
		}
	case <-ctx.Done():
		// The caller stops waiting; the write goroutine does not stop
		// writing, so the stream stays whole if the write lands.
		c.drop(id)
		go c.settleAbandonedSend(id, sent)
		return callCtxErr(method, ctx)
	}

	select {
	case out, ok := <-ch:
		if !ok {
			return ErrClosed
		}
		if len(out.Spans) > 0 {
			csp.Trace().ImportSpans(out.Spans)
		}
		if out.Err != "" {
			return &RemoteError{Method: method, Msg: out.Err, Code: out.Code, Hint: out.Hint}
		}
		if resp != nil {
			return decodeRespBody(out, resp)
		}
		return nil
	case <-ctx.Done():
		// Abandon only this call: unregister the ID (the read loop drops
		// the late response) and tell the server to abort the handler.
		c.drop(id)
		go c.conn.Send(&Envelope{ID: id, Cancel: true})
		return callCtxErr(method, ctx)
	}
}

// abandonedSendGrace is how long a write whose caller has given up may
// still take before the connection is declared wedged.
const abandonedSendGrace = 100 * time.Millisecond

// settleAbandonedSend decides the fate of the connection after a caller's
// context died while its request was still being written. On a connection
// many calls share, breaking it fails every one of them, so it is broken
// only when it has to be: a write that completes within the grace leaves
// the stream whole and the call is aborted server-side like any other
// abandoned one; a write that fails, or is still stuck after the grace
// (a full buffer, a hung peer), breaks the connection — closing it is what
// unblocks the wedged writer and lets a pool re-dial.
func (c *Client) settleAbandonedSend(id uint64, sent <-chan error) {
	grace := time.NewTimer(abandonedSendGrace)
	defer grace.Stop()
	select {
	case err := <-sent:
		if err == nil {
			c.conn.Send(&Envelope{ID: id, Cancel: true})
			return
		}
	case <-grace.C:
	}
	c.breakConn()
}

// decodeRespBody stores a response envelope's body into resp: a binary
// body decodes straight into resp when it speaks the same wire tag, or
// falls back through the registry and a JSON round-trip for untyped
// callers; a JSON body unmarshals as before.
func decodeRespBody(out *Envelope, resp any) error {
	if out.binTag != 0 {
		if wm, ok := resp.(WireMessage); ok && wm.WireTag() == out.binTag {
			d := NewWireDec(out.binBody)
			if err := wm.DecodeWire(d); err != nil {
				return err
			}
			return d.Err()
		}
		m, err := decodeRegistered(out.binTag, out.binBody)
		if err != nil {
			return err
		}
		body, err := json.Marshal(m)
		if err != nil {
			return err
		}
		return json.Unmarshal(body, resp)
	}
	if len(out.Body) > 0 {
		return json.Unmarshal(out.Body, resp)
	}
	return nil
}

// drop unregisters a pending call.
func (c *Client) drop(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// breakConn marks the client unusable and closes the connection, which
// unblocks any wedged writer and makes the read loop fail the remaining
// pending calls.
func (c *Client) breakConn() {
	c.mu.Lock()
	c.broken = true
	c.mu.Unlock()
	c.conn.Close()
}

// Broken reports whether the underlying connection has failed; a Pool
// uses it to decide when a re-dial is warranted.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// callCtxErr converts a context expiry into the matchable call error:
// deadline expiries match both ErrCallTimeout and context.DeadlineExceeded,
// cancelations match context.Canceled, and a custom cancel cause stays
// matchable too.
func callCtxErr(method string, ctx context.Context) error {
	var causes []error
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		causes = []error{ErrCallTimeout, context.DeadlineExceeded}
	} else {
		causes = []error{context.Canceled}
	}
	if cause := context.Cause(ctx); cause != nil && !errors.Is(ctx.Err(), cause) {
		causes = append(causes, cause)
	}
	return &callError{
		msg:    fmt.Sprintf("transport: call %s: %v", method, ctx.Err()),
		causes: causes,
	}
}

// callError ties a failed call to every matchable identity of its cause.
type callError struct {
	msg    string
	causes []error
}

func (e *callError) Error() string   { return e.msg }
func (e *callError) Unwrap() []error { return e.causes }

// Close releases the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// RemoteError is an application-level error returned by an RPC handler.
// When the handler's error carried a wire code (RPCCoder, context
// expiry), Code preserves it so errors.Is matches the typed sentinel on
// the caller's side of the wire.
type RemoteError struct {
	Method string
	Msg    string
	Code   string
	// Hint is the redirect target supplied by an RPCHinter error — for a
	// CodeNotPrimary rejection, the believed primary's address.
	Hint string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Method, e.Msg)
}

// Is matches a RemoteError against typed sentinels by wire code, so
// errors.Is(err, admit.ErrOverload) works even though the concrete value
// never crossed the connection.
func (e *RemoteError) Is(target error) bool {
	if e.Code == "" {
		return false
	}
	if rc, ok := target.(RPCCoder); ok {
		return rc.RPCCode() == e.Code
	}
	switch e.Code {
	case CodeDeadline:
		// The server aborted on the deadline the caller propagated, so
		// from the caller's perspective the call timed out.
		return target == context.DeadlineExceeded || target == ErrCallTimeout
	case CodeCanceled:
		return target == context.Canceled
	}
	return false
}

// IsRemote reports whether err is a RemoteError (as opposed to a transport
// failure).
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// Pool is a fixed-size connection pool, mirroring the paper's database
// optimization of keeping connection threads in memory instead of paying
// connection setup per query (Sect. 10.2.1). Each pooled connection is a
// multiplexed Client, so the pool multiplies throughput rather than
// providing the only concurrency. Connections that break at the
// transport level are replaced on the next use, so a server restart does
// not permanently poison the pool.
type Pool struct {
	netw    Network
	addr    string
	clients chan *Client
	size    int
}

// NewPool dials size connections up front.
func NewPool(net Network, addr string, size int) (*Pool, error) {
	if size < 1 {
		size = 1
	}
	p := &Pool{netw: net, addr: addr, clients: make(chan *Client, size), size: size}
	for i := 0; i < size; i++ {
		c, err := DialClient(net, addr)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.clients <- c
	}
	return p, nil
}

// CallCtx borrows a connection, issues the RPC under the context, and
// returns the connection. Only a connection whose transport actually broke
// is closed and re-dialed — a call abandoned at its deadline leaves the
// multiplexed conn healthy.
func (p *Pool) CallCtx(ctx context.Context, method string, req, resp any) error {
	var c *Client
	select {
	case c = <-p.clients:
	case <-ctx.Done():
		return callCtxErr(method, ctx)
	}
	err := c.CallCtx(ctx, method, req, resp)
	if c.Broken() {
		c.Close()
		if nc, derr := DialClient(p.netw, p.addr); derr == nil {
			c = nc
		}
	}
	p.clients <- c
	return err
}

// Size returns the pool capacity.
func (p *Pool) Size() int { return p.size }

// Close closes all pooled connections currently idle.
func (p *Pool) Close() error {
	for {
		select {
		case c := <-p.clients:
			c.Close()
		default:
			return nil
		}
	}
}
