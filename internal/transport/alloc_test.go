//go:build !race

// Allocation-regression tests for the binary codec hot path. Excluded
// under -race because the race runtime adds bookkeeping allocations that
// make AllocsPerRun meaningless.

package transport

import (
	"runtime"
	"strings"
	"testing"
)

// TestEnvelopeEncodeZeroAlloc: encoding a spanless envelope into a
// pre-sized buffer must not allocate — this is the per-frame hot path of
// every binary RPC.
func TestEnvelopeEncodeZeroAlloc(t *testing.T) {
	e := &Envelope{
		T:          "ms.check",
		ID:         99,
		Body:       []byte(`{"job_id":"j1","url":"http://shop.example/p"}`),
		DeadlineMS: 2000,
		TraceID:    "trace-1",
		SpanID:     "span-2",
		Sampled:    true,
	}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		out, _, err := appendFrame(buf, e)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatal("empty frame")
		}
	})
	if allocs != 0 {
		t.Errorf("envelope encode allocates %.1f times per frame, want 0", allocs)
	}
}

// TestEnvelopeDecodeAllocBound: receiving an envelope costs its frame
// once. The decode takes one private copy of the payload; the header
// strings, the 32 KiB binary body and all six strings of the message
// decoded from that body are views of it. What else is allocated is small
// and fixed: the envelope, the message value and the decoder handed to its
// DecodeWire.
func TestEnvelopeDecodeAllocBound(t *testing.T) {
	e := &Envelope{
		T:          "shop.fetch",
		ID:         99,
		DeadlineMS: 2000,
		TraceID:    "trace-1",
		SpanID:     "span-2",
		Sampled:    true,
		wmsg: &pageMsg{
			URL: "http://shop.example/p/1", Peer: "ppc-3", Mode: "doppelganger",
			Cookie: "sess-0123456789abcdef", Note: "n", HTML: strings.Repeat("<td>19,99</td>", 32<<10/14+1), Status: 200,
		},
	}
	frame, _, err := appendFrame(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) < 32<<10 {
		t.Fatalf("frame is %d bytes, want >= 32 KiB", len(frame))
	}
	decode := func() {
		var out Envelope
		if err := decodeFrame(frame, &out); err != nil {
			t.Fatal(err)
		}
		m, err := decodeRegistered(out.binTag, out.binBody)
		if err != nil {
			t.Fatal(err)
		}
		if page := m.(*pageMsg); len(page.HTML) < 32<<10 || page.Mode != "doppelganger" || out.TraceID != "trace-1" {
			t.Fatalf("decoded %d bytes of page, mode %q, trace %q", len(page.HTML), page.Mode, out.TraceID)
		}
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, decode)
	runtime.ReadMemStats(&after)
	if allocs > 4 {
		t.Errorf("envelope decode allocates %.1f times per frame, want <= 4 (envelope, frame copy, message, decoder)", allocs)
	}
	// One frame-sized allocation: the allocator rounds it up to its size
	// class (at most a quarter more), the rest is a few hundred bytes. A
	// second copy of the body or the page would double it.
	perFrame := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	if limit := uint64(len(frame))*5/4 + 1024; perFrame > limit {
		t.Errorf("envelope decode allocates %d bytes per %d-byte frame, want one frame-sized allocation (<= %d)", perFrame, len(frame), limit)
	}
}
