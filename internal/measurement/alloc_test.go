//go:build !race

// Allocation-regression tests for the high-volume measurement frames.
// Excluded under -race: the race runtime's bookkeeping breaks
// AllocsPerRun counts.

package measurement

import (
	"strings"
	"testing"

	"pricesheriff/internal/htmlx"
	"pricesheriff/internal/transport"
)

func allocCheckRequest() *CheckRequest {
	return &CheckRequest{
		JobID: "job-42",
		URL:   "http://shop.example/product/1",
		TagsPath: htmlx.TagsPath{Steps: []htmlx.Step{
			{Tag: "html"}, {Tag: "body"},
			{Tag: "div", Index: 2, Class: "product"},
			{Tag: "span", Index: 1, Class: "price", ID: "p1"},
		}},
		InitiatorHTML: "<html><body><span class=price>$ 19.99</span></body></html>",
		InitiatorID:   "user-7",
		Currency:      "USD",
		Day:           12,
		TraceID:       "trace-1",
		ParentSpanID:  "span-9",
	}
}

// TestCheckRequestEncodeZeroAlloc: the price-check submit frame is the
// hottest client->server message; encoding into a pre-sized buffer must
// be allocation-free.
func TestCheckRequestEncodeZeroAlloc(t *testing.T) {
	req := allocCheckRequest()
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		out := req.AppendWire(buf)
		if len(out) == 0 {
			t.Fatal("empty encode")
		}
	})
	if allocs != 0 {
		t.Errorf("CheckRequest encode allocates %.1f times per frame, want 0", allocs)
	}
}

// TestResultsResponseEncodeZeroAlloc: the vantage-result frame (spanless,
// as on every poll but the final sampled one) must encode without
// allocating.
func TestResultsResponseEncodeZeroAlloc(t *testing.T) {
	resp := &ResultsResponse{
		Rows: []ResultRow{
			{Source: "You", Kind: "initiator", PeerID: "user-7",
				Original: "$ 19.99", Currency: "USD", Amount: 19.99,
				Converted: 17.5, Confidence: "high"},
			{Source: "peer ES", Kind: "ppc", PeerID: "ppc-1",
				Country: "ES", City: "Madrid", Mode: "doppelganger",
				Err: "status 500"},
		},
		Done: true,
	}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		out := resp.AppendWire(buf)
		if len(out) == 0 {
			t.Fatal("empty encode")
		}
	})
	if allocs != 0 {
		t.Errorf("ResultsResponse encode allocates %.1f times per frame, want 0", allocs)
	}
}

// TestCheckRequestDecodeAllocBound: decode allocates the strings and the
// steps slice it hands out — bounded with headroom so a regression back
// to reflection-based decoding trips the test.
func TestCheckRequestDecodeAllocBound(t *testing.T) {
	frame := allocCheckRequest().AppendWire(nil)
	allocs := testing.AllocsPerRun(200, func() {
		var out CheckRequest
		d := transport.NewWireDec(frame)
		if err := out.DecodeWire(d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Errorf("CheckRequest decode allocates %.1f times per frame, want <= 20", allocs)
	}
}

// TestDiffAllocBounds: a copy that differs from the initiator's page in one
// line costs its ops, the split of that one line and a four-cell table —
// not a split of both pages and a table over all of them — and a copy equal
// to it costs the "=N" op alone.
func TestDiffAllocBounds(t *testing.T) {
	page := mallPages(t)[0][0]
	base := strings.Split(page, "\n")
	changed := strings.Replace(page, `<span class="price">`, `<span class="price">~`, 1)
	if changed == page {
		t.Fatal("mall page has no price span to change")
	}
	if allocs := testing.AllocsPerRun(200, func() { diffLines(base, changed) }); allocs > 8 {
		t.Errorf("one-line-changed diff allocates %.1f times, want <= 8", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { diffLines(base, page) }); allocs > 2 {
		t.Errorf("identical-copy diff allocates %.1f times, want <= 2", allocs)
	}
}
