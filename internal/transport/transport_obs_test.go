package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"pricesheriff/internal/obs"
)

// dialRaw opens a plain TCP socket to a fabric listener so tests can
// write malformed frames the framed API would never produce.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func acceptOne(t *testing.T, lis Listener) <-chan Conn {
	t.Helper()
	ch := make(chan Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		ch <- c
	}()
	return ch
}

func TestRecvUnmarshalErrorNamesRemote(t *testing.T) {
	lis, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := acceptOne(t, lis)

	raw := dialRaw(t, lis.Addr())
	payload := []byte("{not json!")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := raw.Write(append(hdr[:], payload...)); err != nil {
		t.Fatal(err)
	}

	srv := <-accepted
	defer srv.Close()
	var v map[string]any
	err = srv.Recv(&v)
	if err == nil {
		t.Fatal("Recv of invalid JSON succeeded")
	}
	if !strings.Contains(err.Error(), srv.RemoteAddr()) {
		t.Fatalf("error %q does not name remote %q", err, srv.RemoteAddr())
	}
}

// TestOversizedFrameKeepsWriterAlive is the ISSUE's satellite: a read-side
// frame beyond MaxFrame must surface ErrFrameTooLarge and leave the
// connection's writer usable.
func TestOversizedFrameKeepsWriterAlive(t *testing.T) {
	lis, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := acceptOne(t, lis)

	raw := dialRaw(t, lis.Addr())
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(MaxFrame+1))
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}

	srv := <-accepted
	defer srv.Close()
	var v map[string]any
	if err := srv.Recv(&v); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Recv err = %v, want ErrFrameTooLarge", err)
	}

	// The writer half must still work after the read-side failure.
	if err := srv.Send(map[string]string{"still": "alive"}); err != nil {
		t.Fatalf("Send after oversized Recv: %v", err)
	}
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	// The accepted conn advertises the binary codec as its first bytes;
	// a raw peer sees (and may ignore) that advert before any frame.
	var advert [4]byte
	if _, err := io.ReadFull(raw, advert[:]); err != nil {
		t.Fatalf("read advert: %v", err)
	}
	if !isHello(advert) {
		t.Fatalf("first server bytes = %x, want codec advert", advert)
	}
	var respHdr [4]byte
	if _, err := io.ReadFull(raw, respHdr[:]); err != nil {
		t.Fatalf("read reply header: %v", err)
	}
	n := binary.BigEndian.Uint32(respHdr[:])
	buf := make([]byte, n)
	if _, err := io.ReadFull(raw, buf); err != nil {
		t.Fatalf("read reply body: %v", err)
	}
	if !strings.Contains(string(buf), "alive") {
		t.Fatalf("reply = %q", buf)
	}
}

func TestMetricsCountFrames(t *testing.T) {
	reg := obs.NewRegistry()
	fab := TCP{Metrics: NewMetrics(reg, "tcp")}
	lis, err := fab.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := acceptOne(t, lis)

	cli, err := fab.Dial(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-accepted
	defer srv.Close()

	msg := map[string]string{"ping": "pong"}
	if err := cli.Send(msg); err != nil {
		t.Fatal(err)
	}
	var got map[string]string
	if err := srv.Recv(&got); err != nil {
		t.Fatal(err)
	}

	sent := reg.Counter("sheriff_transport_frames_sent_total", "fabric", "tcp").Value()
	recv := reg.Counter("sheriff_transport_frames_recv_total", "fabric", "tcp").Value()
	bytesSent := reg.Counter("sheriff_transport_bytes_sent_total", "fabric", "tcp").Value()
	if sent != 1 || recv != 1 {
		t.Fatalf("frames sent=%d received=%d, want 1/1", sent, recv)
	}
	if bytesSent <= 4 {
		t.Fatalf("bytes sent = %d, want > 4", bytesSent)
	}
	if n := reg.Histogram("sheriff_transport_send_seconds", "fabric", "tcp").Count(); n != 1 {
		t.Fatalf("send histogram count = %d, want 1", n)
	}
}

func TestInprocMetricsCountFrames(t *testing.T) {
	reg := obs.NewRegistry()
	fab := NewInproc()
	fab.Metrics = NewMetrics(reg, "inproc")
	lis, err := fab.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := acceptOne(t, lis)

	cli, err := fab.Dial(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-accepted
	defer srv.Close()

	if err := cli.Send(map[string]int{"n": 1}); err != nil {
		t.Fatal(err)
	}
	var got map[string]int
	if err := srv.Recv(&got); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("sheriff_transport_frames_sent_total", "fabric", "inproc").Value(); n != 1 {
		t.Fatalf("inproc frames sent = %d, want 1", n)
	}
}

// TestPreAdvertFallbackCounted: the first frame of a fresh binary-configured
// TCP connection leaves before the peer's capability advert has been read,
// so it rides JSON — the degraded path a dial-per-request caller takes for
// its largest frame every time. It is counted; once a frame has come back
// (the advert was consumed on the way) the connection sends binary and the
// counter stands still. A JSON-configured endpoint never counts: it is not
// falling back from anything.
func TestPreAdvertFallbackCounted(t *testing.T) {
	reg := obs.NewRegistry()
	fab := TCP{Metrics: NewMetrics(reg, "tcp")}
	preAdvert := reg.Counter("sheriff_transport_wire_fallback_total", "fabric", "tcp", "reason", "pre_advert")
	lis, err := fab.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := acceptOne(t, lis)
	cli, err := fab.Dial(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-accepted
	defer srv.Close()

	msg := map[string]string{"ping": "pong"}
	var got map[string]string
	if err := cli.Send(msg); err != nil {
		t.Fatal(err)
	}
	if n := preAdvert.Value(); n != 1 {
		t.Fatalf("pre_advert after the first frame of a fresh connection = %d, want 1", n)
	}
	if err := srv.Recv(&got); err != nil {
		t.Fatal(err)
	}
	if err := srv.Send(msg); err != nil { // the acceptor has read the dialer's advert
		t.Fatal(err)
	}
	if err := cli.Recv(&got); err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(msg); err != nil {
		t.Fatal(err)
	}
	if n := preAdvert.Value(); n != 1 {
		t.Errorf("pre_advert on a negotiated connection = %d, want it to stay at 1", n)
	}
	if !connBinary(cli) {
		t.Error("connection did not negotiate binary")
	}

	jsonFab := TCP{Metrics: fab.Metrics, Wire: WireJSON}
	accepted = acceptOne(t, lis)
	jcli, err := jsonFab.Dial(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer jcli.Close()
	defer (<-accepted).Close()
	if err := jcli.Send(msg); err != nil {
		t.Fatal(err)
	}
	if n := preAdvert.Value(); n != 1 {
		t.Errorf("pre_advert after a JSON-configured send = %d, want 1", n)
	}
}
