package transport_test

import (
	"context"
	"testing"
	"time"

	"pricesheriff/internal/transport"
)

// echoMsg is a test-local frame type registered in the high tag range so
// it never collides with production codecs. It backs the TCP round trip
// below and the "transport_test.echo" cross-check sample.
type echoMsg struct {
	Name string `json:"name"`
	N    int64  `json:"n"`
}

func (m *echoMsg) WireTag() uint8 { return 240 }

func (m *echoMsg) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, m.Name)
	b = transport.AppendVarint(b, m.N)
	return b
}

func (m *echoMsg) DecodeWire(d *transport.WireDec) error {
	m.Name = d.String()
	m.N = d.Varint()
	return d.Err()
}

func init() {
	transport.RegisterWire(240, "transport_test.echo", func() transport.WireMessage { return new(echoMsg) })
}

// TestMixedVersionInterop drives a typed call over real TCP between two
// endpoints of the one framing there is: binary from the first frame of a
// fresh connection, and on the warmed-up connection after it.
func TestMixedVersionInterop(t *testing.T) {
	t.Run("client=binary_server=binary", func(t *testing.T) {
		lis, err := transport.TCP{}.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := transport.NewServer(lis)
		transport.HandleTyped(srv, "test.echo", func(_ context.Context, req *echoMsg) (any, error) {
			return &echoMsg{Name: req.Name + "!", N: req.N + 1}, nil
		})
		go srv.Serve()
		defer srv.Close()

		cli, err := transport.DialClient(transport.TCP{}, lis.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var resp echoMsg
		if err := cli.CallCtx(ctx, "test.echo", &echoMsg{Name: "ping", N: 41}, &resp); err != nil {
			t.Fatalf("call: %v", err)
		}
		if resp.Name != "ping!" || resp.N != 42 {
			t.Errorf("resp = %+v, want {ping! 42}", resp)
		}
		var resp2 echoMsg
		if err := cli.CallCtx(ctx, "test.echo", &echoMsg{Name: "pong", N: 8}, &resp2); err != nil {
			t.Fatalf("second call: %v", err)
		}
		if resp2.Name != "pong!" || resp2.N != 9 {
			t.Errorf("resp2 = %+v, want {pong! 9}", resp2)
		}
	})
}
