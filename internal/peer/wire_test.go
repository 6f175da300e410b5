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
// typed — binary on a binary leg, JSON on a JSON one — and the broker
// relays between legs of different codecs without knowing which it got.
// Whatever the combination, the page, the mode and the node-side spans
// arrive.
func TestRelayAcrossMixedCodecs(t *testing.T) {
	wires := []string{transport.WireBinary, transport.WireJSON}
	for _, nodeWire := range wires {
		for _, reqWire := range wires {
			t.Run("node="+nodeWire+"_requester="+reqWire, func(t *testing.T) {
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
				n, err := Connect(transport.TCP{Wire: nodeWire}, b.Addr(), "mixed-peer", br, shop.LocalFetcher{Mall: mall}, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer n.Close()
				go n.Run()
				r, err := NewRequester(transport.TCP{Wire: reqWire}, b.Addr(), "ms-mixed", 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()

				tracer := obs.NewTracer(4)
				tr, _ := tracer.Start("", "check")
				ctx := obs.WithSpan(context.Background(), tr.Span("fanout"))
				for i := 0; i < 2; i++ { // the second request rides settled codecs
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
	}
}

// TestMsgPayloadEncodings: a typed payload must come out the same through
// the binary codec, through a binary relay hop (decode, re-encode
// untouched), and through the JSON rendering a legacy leg gets.
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
	asJSON, err := json.Marshal(&hop)
	if err != nil {
		t.Fatal(err)
	}
	var legacy Msg
	if err := json.Unmarshal(asJSON, &legacy); err != nil {
		t.Fatal(err)
	}
	direct, _ := json.Marshal(out)
	if string(direct) != string(asJSON) {
		t.Errorf("JSON of a typed payload and of its relayed binary form differ:\n typed   %s\n relayed %s", direct, asJSON)
	}
	for name, m := range map[string]*Msg{"binary hop": &hop, "relayed": &relayed, "json leg": &legacy} {
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

// TestMsgSpanBitsInterop: spans under the old JSON-blob bit still decode,
// and a decoder from before the binary-batch bit loses only the spans.
func TestMsgSpanBitsInterop(t *testing.T) {
	spans := []obs.WireSpan{{ID: "s1", Parent: "s0", Name: "ppc_fetch", Start: 7, End: 9}}
	blob, _ := json.Marshal(spans)
	old := transport.AppendUvarint(nil, msgHasReqID|msgHasJSONSpans)
	old = transport.AppendString(old, KindPageResp)
	old = transport.AppendUvarint(old, 11)
	old = transport.AppendBytes(old, blob)
	var fromOld Msg
	if err := fromOld.DecodeWire(transport.NewWireDec(old)); err != nil {
		t.Fatalf("msg with the old JSON span blob: %v", err)
	}
	if fromOld.ReqID != 11 || !reflect.DeepEqual(fromOld.Spans, spans) {
		t.Errorf("old-format msg decoded to %+v", fromOld)
	}

	cur := (&Msg{Kind: KindPageResp, ReqID: 11, Spans: spans}).AppendWire(nil)
	prefix := len(transport.AppendUvarint(nil, msgHasReqID|msgHasSpans))
	blind := append(transport.AppendUvarint(nil, msgHasReqID), cur[prefix:]...)
	var fromBlind Msg
	if err := fromBlind.DecodeWire(transport.NewWireDec(blind)); err != nil {
		t.Fatalf("decoder ignoring the span bit: %v", err)
	}
	if fromBlind.Kind != KindPageResp || fromBlind.ReqID != 11 || fromBlind.Spans != nil {
		t.Errorf("decoder ignoring the span bit got %+v, want everything but the spans", fromBlind)
	}
}
