// Package transport provides the message-passing substrate of the Price
// $heriff: length-prefixed frames over a stream connection, with two
// interchangeable fabrics — real TCP (the deployment path) and an
// in-process loopback (fast deterministic tests). Every frame on every
// connection carries the binary wire codec (see wire.go); the add-on's
// webRTC/peerjs channels (paper Sect. 10.2.2) are modelled by the same
// framing relayed through a broker in package peer.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// MaxFrame caps a single frame; product pages are well under this.
const MaxFrame = 16 << 20

// Errors returned by the framing layer. An oversized frame surfaces as a
// *FrameTooLargeError carrying the offending size and frame tag; it still
// matches ErrFrameTooLarge under errors.Is.
var (
	ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrame")
	ErrClosed        = errors.New("transport: connection closed")
)

// Conn is a bidirectional framed-message connection. Send and Recv are
// individually goroutine-safe; a single Conn supports one concurrent
// reader and one concurrent writer.
type Conn interface {
	// Send marshals v and writes it as one frame.
	Send(v any) error
	// Recv reads one frame and unmarshals into v.
	Recv(v any) error
	Close() error
	RemoteAddr() string
}

// DeadlineConn is optionally implemented by Conns whose Send/Recv can be
// bounded in time. Both built-in fabrics implement it: TCP via real socket
// deadlines, the in-process fabric via a select on a timer. An expired
// deadline surfaces as an error matching os.ErrDeadlineExceeded; the zero
// time clears the deadline.
type DeadlineConn interface {
	Conn
	SetDeadline(t time.Time) error
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr is the dialable address of this listener.
	Addr() string
}

// Network abstracts the fabric: TCP or in-process.
type Network interface {
	// Listen binds a listener. For TCP, addr is a host:port (use
	// "127.0.0.1:0" for an ephemeral port); for the in-process fabric it
	// is a logical name ("" asks for a generated one).
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// --- TCP fabric ---

// TCP is the real-network fabric. Metrics, when set, counts every frame
// moved by connections this value dials or accepts.
type TCP struct {
	Metrics *Metrics
}

type tcpListener struct {
	l net.Listener
	m *Metrics
}

type tcpConn struct {
	c    net.Conn
	m    *Metrics
	rmu  sync.Mutex
	wmu  sync.Mutex
	rhdr [4]byte // frame-header scratch, guarded by rmu
}

// Listen binds a TCP listener.
func (t TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l, m: t.Metrics}, nil
}

// Dial connects to a TCP listener.
func (t TCP) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpConn{c: c, m: t.Metrics}, nil
}

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return &tcpConn{c: c, m: l.m}, nil
}

func (l *tcpListener) Close() error { return l.l.Close() }
func (l *tcpListener) Addr() string { return l.l.Addr().String() }

// TransportMetrics implements MetricsSource.
func (l *tcpListener) TransportMetrics() *Metrics { return l.m }

// Send frames v into one pooled buffer — the flagged header is backfilled
// so header and payload go out in a single write.
func (c *tcpConn) Send(v any) error {
	t0 := time.Now()
	bp := getBuf()
	defer putBuf(bp)
	buf, tag, err := appendFrame(append(*bp, 0, 0, 0, 0), v)
	*bp = buf
	if err != nil {
		return err
	}
	n := len(buf) - 4
	if n > MaxBinaryFrame {
		return &FrameTooLargeError{Size: n, Tag: tag}
	}
	buf[0] = frameFlagBinary
	buf[1], buf[2], buf[3] = byte(n>>16), byte(n>>8), byte(n)
	c.wmu.Lock()
	_, err = c.c.Write(buf)
	c.wmu.Unlock()
	if err != nil {
		return err
	}
	c.m.sent(v, n+4, t0)
	return nil
}

// Recv reads one frame. A header without frameFlagBinary comes from a
// peer that is not this build (a JSON length prefix, a capability advert,
// noise): it is answered with a *ForeignFrameError and the connection is
// closed, since nothing after an unreadable header can be framed.
func (c *tcpConn) Recv(v any) error {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if _, err := io.ReadFull(c.c, c.rhdr[:]); err != nil {
		return err
	}
	if c.rhdr[0] != frameFlagBinary {
		c.c.Close()
		return &ForeignFrameError{Remote: c.RemoteAddr(), Header: c.rhdr}
	}
	t0 := time.Now() // frame available: time the transfer + decode
	n := int(c.rhdr[1])<<16 | int(c.rhdr[2])<<8 | int(c.rhdr[3])
	bp := getBuf()
	defer putBuf(bp)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	buf := (*bp)[:n]
	if _, err := io.ReadFull(c.c, buf); err != nil {
		return err
	}
	if err := decodeFrame(buf, v); err != nil {
		return fmt.Errorf("transport: unmarshal frame from %s: %w", c.RemoteAddr(), err)
	}
	c.m.received(n+4, t0)
	return nil
}

func (c *tcpConn) Close() error       { return c.c.Close() }
func (c *tcpConn) RemoteAddr() string { return c.c.RemoteAddr().String() }

// SetDeadline implements DeadlineConn on the real socket.
func (c *tcpConn) SetDeadline(t time.Time) error { return c.c.SetDeadline(t) }

// --- In-process fabric ---

// Inproc is a loopback fabric: connections are paired byte-frame channels.
// Addresses are logical names scoped to one Inproc instance. Metrics, when
// set before the first Dial, counts every frame moved by the fabric.
type Inproc struct {
	// Metrics instruments connections created after it is set.
	Metrics *Metrics

	mu        sync.Mutex
	listeners map[string]*inprocListener
	nextAddr  int
}

// NewInproc creates an empty loopback fabric.
func NewInproc() *Inproc {
	return &Inproc{listeners: make(map[string]*inprocListener)}
}

type inprocListener struct {
	net    *Inproc
	addr   string
	accept chan *inprocConn
	done   chan struct{}
	once   sync.Once
}

// inprocPipe is the shared closed-state of a connection pair; closing
// either endpoint tears down both directions.
type inprocPipe struct {
	once   sync.Once
	closed chan struct{}
}

func (p *inprocPipe) close() { p.once.Do(func() { close(p.closed) }) }

type inprocConn struct {
	// Frames travel as pooled buffer holders whose ownership passes to the
	// receiver on delivery (it recycles the buffer after decoding).
	out  chan *[]byte
	in   chan *[]byte
	pipe *inprocPipe
	peer string
	m    *Metrics

	dmu      sync.Mutex
	deadline time.Time
}

// Listen binds a named listener; "" generates a unique name.
func (n *Inproc) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" {
		n.nextAddr++
		addr = fmt.Sprintf("inproc-%d", n.nextAddr)
	}
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: address %q already bound", addr)
	}
	l := &inprocListener{
		net:    n,
		addr:   addr,
		accept: make(chan *inprocConn),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to a named listener.
func (n *Inproc) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	a2b := make(chan *[]byte, 64)
	b2a := make(chan *[]byte, 64)
	pipe := &inprocPipe{closed: make(chan struct{})}
	client := &inprocConn{out: a2b, in: b2a, pipe: pipe, peer: addr, m: n.Metrics}
	server := &inprocConn{out: b2a, in: a2b, pipe: pipe, peer: "dialer", m: n.Metrics}
	select {
	case l.accept <- server:
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("transport: listener %q closed", addr)
	}
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

// TransportMetrics implements MetricsSource.
func (l *inprocListener) TransportMetrics() *Metrics { return l.net.Metrics }

func (c *inprocConn) Send(v any) error {
	t0 := time.Now()
	data := getBuf()
	buf, tag, err := appendFrame(*data, v)
	*data = buf
	if err != nil {
		putBuf(data)
		return err
	}
	if len(buf) > MaxFrame {
		putBuf(data)
		return &FrameTooLargeError{Size: len(buf), Tag: tag}
	}
	n := len(buf) // the receiver owns data the moment it is delivered
	expire, cancel := c.expiry()
	defer cancel()
	select {
	case c.out <- data:
		c.m.sent(v, n, t0)
		return nil
	case <-expire:
		putBuf(data)
		return os.ErrDeadlineExceeded
	case <-c.pipe.closed:
		putBuf(data)
		return ErrClosed
	}
}

// SetDeadline implements DeadlineConn: Send/Recv select on a timer armed
// for the remaining time.
func (c *inprocConn) SetDeadline(t time.Time) error {
	c.dmu.Lock()
	c.deadline = t
	c.dmu.Unlock()
	return nil
}

// expiry arms a timer for the current deadline; the returned channel is
// nil (never fires) when no deadline is set.
func (c *inprocConn) expiry() (<-chan time.Time, func()) {
	c.dmu.Lock()
	d := c.deadline
	c.dmu.Unlock()
	if d.IsZero() {
		return nil, func() {}
	}
	timer := time.NewTimer(time.Until(d))
	return timer.C, func() { timer.Stop() }
}

func (c *inprocConn) decode(data *[]byte, v any) error {
	t0 := time.Now()
	n := len(*data)
	err := decodeFrame(*data, v)
	putBuf(data) // decoded values never alias the frame buffer
	if err != nil {
		return fmt.Errorf("transport: unmarshal frame from %s: %w", c.RemoteAddr(), err)
	}
	c.m.received(n, t0)
	return nil
}

func (c *inprocConn) Recv(v any) error {
	expire, cancel := c.expiry()
	defer cancel()
	select {
	case data := <-c.in:
		return c.decode(data, v)
	case <-expire:
		return os.ErrDeadlineExceeded
	case <-c.pipe.closed:
		// Drain anything already queued before reporting closure.
		select {
		case data := <-c.in:
			return c.decode(data, v)
		default:
			return ErrClosed
		}
	}
}

func (c *inprocConn) Close() error {
	c.pipe.close()
	return nil
}

func (c *inprocConn) RemoteAddr() string { return c.peer }
