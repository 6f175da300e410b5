package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
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
	payload := append([]byte{frameJSON}, "{not json!"...)
	hdr := []byte{frameFlagBinary, 0, 0, byte(len(payload))}
	if _, err := raw.Write(append(hdr, payload...)); err != nil {
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

// TestForeignFrameRejected: a TCP peer that is not this build — one that
// opens with a JSON length prefix or with the retired capability advert
// (an oversized length: TestTCPFrameTooLargeOnWire) — gets the typed
// rejection naming it on its first header, and the connection is closed:
// there is no second framing to fall back to. (The in-process fabric has
// no headers to get wrong: both ends of a pipe are this process.)
func TestForeignFrameRejected(t *testing.T) {
	jsonFrame := binary.BigEndian.AppendUint32(nil, 7)
	jsonFrame = append(jsonFrame, `{"a":1}`...)
	cases := []struct {
		name  string
		bytes []byte
	}{
		{"json_length_prefix", jsonFrame},
		{"retired_advert", []byte{0xBF, 'P', 'S', 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lis, err := TCP{}.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			accepted := acceptOne(t, lis)
			raw := dialRaw(t, lis.Addr())
			if _, err := raw.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			srv := <-accepted
			defer srv.Close()

			var v map[string]any
			err = srv.Recv(&v)
			var ffe *ForeignFrameError
			if !errors.As(err, &ffe) {
				t.Fatalf("Recv err = %v, want a *ForeignFrameError", err)
			}
			if ffe.Remote != srv.RemoteAddr() || !strings.Contains(err.Error(), srv.RemoteAddr()) {
				t.Errorf("error %q (Remote %q) does not name remote %q", err, ffe.Remote, srv.RemoteAddr())
			}
			if string(ffe.Header[:]) != string(tc.bytes[:4]) {
				t.Errorf("Header = % x, want % x", ffe.Header, tc.bytes[:4])
			}
			// Closed on both halves: nothing more goes out, and the peer
			// reads the end of the stream instead of a reply.
			if err := srv.Send(map[string]string{"still": "alive"}); err == nil {
				t.Error("Send after a foreign frame succeeded; the connection should be closed")
			}
			raw.SetReadDeadline(time.Now().Add(2 * time.Second))
			if n, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("peer read %d bytes, err = %v; want the connection closed", n, err)
			}
		})
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
