package peer

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pricesheriff/internal/browser"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/transport"
)

// TestRelayAcrossMixedCodecs: the page request and response payloads are
// typed and the broker relays them between the node's leg and the
// requester's over real TCP without decoding them: the page, the mode and
// the node-side spans arrive.
func TestRelayAcrossMixedCodecs(t *testing.T) {
	t.Run("node=binary_requester=binary", func(t *testing.T) {
		lis, err := (transport.TCP{}).Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b := NewBroker(lis)
		go b.Serve()
		defer b.Close()

		mall := shop.NewMall(shop.MallConfig{Seed: 4, NumDomains: 20, NumLocationPD: 5, NumAlexa: 5})
		s, _ := mall.Shop("chegg.com")
		url := s.ProductURL(s.Products()[0].SKU)
		ip, _ := mall.World.RandomIP(rand.New(rand.NewSource(1)), "ES", "")
		br := browser.New("mixed-peer", ip.String(), "linux", "firefox")
		n, err := Connect(transport.TCP{}, b.Addr(), "mixed-peer", br, shop.LocalFetcher{Mall: mall}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		go n.Run()
		r, err := NewRequester(transport.TCP{}, b.Addr(), "ms-mixed", 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()

		tracer := obs.NewTracer(4)
		tr, _ := tracer.Start("", "check")
		ctx := obs.WithSpan(context.Background(), tr.Span("fanout"))
		for i := 0; i < 2; i++ {
			resp, err := r.RequestPage(ctx, "mixed-peer", &PageRequest{URL: url, Day: 1})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != 200 || resp.Mode == "" || resp.PeerID != "mixed-peer" || len(resp.HTML) < 100 {
				t.Errorf("request %d: status %d mode %q peer %q, %d bytes of page", i, resp.Status, resp.Mode, resp.PeerID, len(resp.HTML))
			}
		}
		tr.Finish()
		var names []string
		var walk func(sps []obs.SpanView)
		walk = func(sps []obs.SpanView) {
			for _, sp := range sps {
				names = append(names, sp.Name)
				walk(sp.Children)
			}
		}
		walk(tracer.Recent()[0].Spans)
		want := []string{"fanout", "relay mixed-peer", "ppc_fetch", "relay mixed-peer", "ppc_fetch"}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("stitched spans = %v, want %v", names, want)
		}
	})
}

// TestMsgPayloadEncodings: a typed payload must come out the same through
// the binary codec and through a binary relay hop (decode, re-encode
// untouched); a payload of a kind with no codec rides as JSON bytes and
// decodes from those.
func TestMsgPayloadEncodings(t *testing.T) {
	page := &PageResponse{Status: 200, HTML: "<html>x</html>", Mode: "clean", PeerID: "ppc-1"}
	out := &Msg{Kind: KindPageResp, To: "ms-1", ReqID: 9, body: page}

	var hop Msg
	if err := hop.DecodeWire(transport.NewWireDec(out.AppendWire(nil))); err != nil {
		t.Fatal(err)
	}
	var relayed Msg
	if err := relayed.DecodeWire(transport.NewWireDec(hop.AppendWire(nil))); err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(page)
	var untyped Msg
	if err := untyped.DecodeWire(transport.NewWireDec((&Msg{Kind: KindPageResp, To: "ms-1", ReqID: 9, Payload: raw}).AppendWire(nil))); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Msg{"binary hop": &hop, "relayed": &relayed, "json payload": &untyped} {
		var got PageResponse
		if err := m.decodePayload(&got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != *page || m.ReqID != 9 || m.To != "ms-1" {
			t.Errorf("%s: payload %+v in %+v", name, got, m)
		}
	}
	var wrong PageRequest
	if err := hop.decodePayload(&wrong); err == nil {
		t.Error("a page_response payload decoded into a PageRequest")
	}
}

// TestMsgSpanBitsInterop pins the span flag: the encoder writes the binary
// batch under bit 10 and never sets the reserved bit 8 (retired with the
// JSON span blob; the bits after it must keep their values), and a msg
// that does set the reserved bit decodes like any other unknown flag —
// ignored, with every known field intact.
func TestMsgSpanBitsInterop(t *testing.T) {
	const reserved = 1 << 8
	if msgSampled != reserved>>1 || msgHasBinPayload != reserved<<1 || msgHasSpans != reserved<<2 {
		t.Fatalf("msgSampled, msgHasBinPayload, msgHasSpans = %#x, %#x, %#x: the reserved bit among them moved", msgSampled, msgHasBinPayload, msgHasSpans)
	}
	spans := []obs.WireSpan{{ID: "s1", Parent: "s0", Name: "ppc_fetch", Start: 7, End: 9}}
	cur := (&Msg{Kind: KindPageResp, ReqID: 11, Spans: spans}).AppendWire(nil)
	if flags := transport.NewWireDec(cur).Uvarint(); flags&reserved != 0 || flags&msgHasSpans == 0 {
		t.Fatalf("encoder wrote flags %b: want the span bit and never the reserved one", flags)
	}
	var got Msg
	if err := got.DecodeWire(transport.NewWireDec(cur)); err != nil || !reflect.DeepEqual(got.Spans, spans) {
		t.Fatalf("round trip: spans %+v, err %v", got.Spans, err)
	}

	odd := transport.AppendUvarint(nil, msgHasReqID|reserved)
	odd = transport.AppendString(odd, KindPageResp)
	odd = transport.AppendUvarint(odd, 11)
	var fromOdd Msg
	if err := fromOdd.DecodeWire(transport.NewWireDec(odd)); err != nil {
		t.Fatalf("msg with the reserved bit set: %v", err)
	}
	if fromOdd.Kind != KindPageResp || fromOdd.ReqID != 11 || fromOdd.Spans != nil {
		t.Errorf("msg with the reserved bit set decoded to %+v", fromOdd)
	}
}
