package obs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestWireExportImportRoundTrip models the span-export protocol: a
// "remote" process joins a trace by ID, records spans, exports them, and
// the originator stitches them under its own parent span.
func TestWireExportImportRoundTrip(t *testing.T) {
	tracer := NewTracer(4)
	tr, _ := tracer.Start("", "check")
	parent := tr.Span("await")

	remote := NewRemoteTrace(tr.ID())
	h := remote.Span("ms.check", "proc", "measurement")
	c1 := h.Child("vantage", "kind", "ipc")
	c1.End()
	c2 := h.Child("vantage", "kind", "ppc")
	c2.Annotate("error", "boom")
	c2.End()
	h.End()

	ws := remote.Export(parent.ID(), "measurement")
	if len(ws) != 3 {
		t.Fatalf("exported %d spans, want 3", len(ws))
	}
	if n := tr.ImportSpans(ws); n != 3 {
		t.Fatalf("imported %d spans, want 3", n)
	}
	// Importing the same batch again must be a no-op (dedup by span ID).
	if n := tr.ImportSpans(ws); n != 0 {
		t.Fatalf("re-import created %d spans, want 0", n)
	}
	parent.End()
	tr.Finish()

	views := tracer.Recent()
	if len(views) != 1 {
		t.Fatalf("recent = %d, want 1", len(views))
	}
	var await *SpanView
	for i := range views[0].Spans {
		if views[0].Spans[i].Name == "await" {
			await = &views[0].Spans[i]
		}
	}
	if await == nil {
		t.Fatal("no await span in view")
	}
	if len(await.Children) != 1 || await.Children[0].Name != "ms.check" {
		t.Fatalf("await children = %+v, want one ms.check", await.Children)
	}
	srv := await.Children[0]
	if srv.Attrs["proc"] != "measurement" {
		t.Errorf("server span proc = %q, want measurement", srv.Attrs["proc"])
	}
	if len(srv.Children) != 2 {
		t.Fatalf("server span has %d children, want 2", len(srv.Children))
	}
	if !views[0].HasError() {
		t.Error("trace with an errored imported span must report HasError")
	}
}

// TestExportStampsProc verifies spans without a proc attribute get one at
// export time, while explicit proc attributes are preserved.
func TestExportStampsProc(t *testing.T) {
	remote := NewRemoteTrace("tr-x")
	a := remote.Span("unstamped")
	a.End()
	b := remote.Span("stamped", "proc", "custom")
	b.End()
	for _, ws := range remote.Export("", "ppc") {
		want := "ppc"
		if ws.Name == "stamped" {
			want = "custom"
		}
		got := ""
		for _, kv := range ws.Attrs {
			if kv[0] == "proc" {
				got = kv[1]
			}
		}
		if got != want {
			t.Errorf("span %s proc = %q, want %q", ws.Name, got, want)
		}
	}
}

// TestImportSpansMalformed feeds parent cycles and dangling parents: both
// must attach at the root rather than corrupting the tree.
func TestImportSpansMalformed(t *testing.T) {
	tracer := NewTracer(4)
	tr, _ := tracer.Start("", "check")
	now := time.Now().UnixNano()
	ws := []WireSpan{
		{ID: "a", Parent: "b", Name: "cyc-a", Start: now, End: now + 1},
		{ID: "b", Parent: "a", Name: "cyc-b", Start: now, End: now + 1},
		{ID: "c", Parent: "missing", Name: "dangling", Start: now, End: now + 1},
	}
	if n := tr.ImportSpans(ws); n != 3 {
		t.Fatalf("imported %d, want 3", n)
	}
	tr.Finish()
	views := tracer.Recent()
	if len(views) != 1 {
		t.Fatalf("recent = %d, want 1", len(views))
	}
	// All three spans must be reachable from the root view; rendering
	// must terminate (a cycle would have hung or dropped spans).
	total := 0
	var count func(sps []SpanView)
	count = func(sps []SpanView) {
		for _, sp := range sps {
			total++
			count(sp.Children)
		}
	}
	count(views[0].Spans)
	if total != 3 {
		t.Errorf("view renders %d spans, want 3", total)
	}
}

// TestImportIntoSharedTrace models the in-process deployment: client and
// server handler share one *Trace, so the handler's spans already exist
// when the export comes back and the import must create nothing.
func TestImportIntoSharedTrace(t *testing.T) {
	tracer := NewTracer(4)
	tr, _ := tracer.Start("", "check")
	h := tr.Span("handler")
	h.End()
	ws := tr.Export("", "coordinator")
	if n := tr.ImportSpans(ws); n != 0 {
		t.Errorf("importing own spans created %d, want 0", n)
	}
}

// awkwardBatch is a span batch with everything a decoder and an importer
// must survive: empty attrs, a duplicate ID, a parent cycle, a dangling
// parent, a negative duration.
func awkwardBatch() []WireSpan {
	return []WireSpan{
		{ID: "a", Parent: "b", Name: "cyc-a", Start: 100, End: 250},
		{ID: "b", Parent: "a", Name: "cyc-b", Start: 120, End: 110, Attrs: [][2]string{{"kind", "ipc"}, {"", ""}}},
		{ID: "a", Parent: "", Name: "dup-of-a", Start: 1, End: 2},
		{ID: "c", Parent: "missing", Name: "", Start: -5, End: 1 << 60},
	}
}

// TestWireSpansBinaryMatchesJSON: the binary batch must carry exactly what
// the JSON encoding of []WireSpan carries.
func TestWireSpansBinaryMatchesJSON(t *testing.T) {
	for name, ws := range map[string][]WireSpan{"awkward": awkwardBatch(), "one": {{ID: "s", Name: "n"}}} {
		got, err := DecodeWireSpans(AppendWireSpans(nil, ws))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		want, _ := json.Marshal(ws)
		have, _ := json.Marshal(got)
		if string(want) != string(have) {
			t.Errorf("%s: binary round trip diverges from JSON:\n json   %s\n binary %s", name, want, have)
		}
	}
	if got, err := DecodeWireSpans(AppendWireSpans(nil, nil)); err != nil || got != nil {
		t.Errorf("empty batch = %v, %v; want nil, nil", got, err)
	}
}

// TestWireSpansDecodeNeverPanics: every truncation of a valid batch, and a
// count no batch of that size could hold, must fail cleanly.
func TestWireSpansDecodeNeverPanics(t *testing.T) {
	full := AppendWireSpans(nil, awkwardBatch())
	for i := 1; i < len(full); i++ {
		if _, err := DecodeWireSpans(full[:i]); err == nil {
			t.Errorf("batch truncated to %d of %d bytes decoded without error", i, len(full))
		}
	}
	bomb := binary.AppendUvarint(nil, 1<<40)
	if ws, err := DecodeWireSpans(bomb); err == nil || ws != nil {
		t.Errorf("bomb count decoded to %d spans, err %v", len(ws), err)
	}
}

// TestWireSpansDecodeDoesNotAliasInput: imported spans outlive the frame
// they arrived in, which the transport recycles or lets go.
func TestWireSpansDecodeDoesNotAliasInput(t *testing.T) {
	buf := AppendWireSpans(nil, []WireSpan{{ID: "span-1", Name: "fetch", Attrs: [][2]string{{"k", "v"}}}})
	ws, err := DecodeWireSpans(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	if ws[0].ID != "span-1" || ws[0].Name != "fetch" || ws[0].Attrs[0] != [2]string{"k", "v"} {
		t.Errorf("decoded span changed with its input buffer: %+v", ws[0])
	}
}

// batchUnder builds m fresh spans chained under parent.
func batchUnder(parent string, seq *int, m int) []WireSpan {
	ws := make([]WireSpan, m)
	for i := range ws {
		*seq++
		ws[i] = WireSpan{ID: fmt.Sprintf("remote-%d", *seq), Parent: parent, Name: "hop", Start: 1, End: 2}
		parent = ws[i].ID
	}
	return ws
}

// TestImportSpansCostIndependentOfTraceSize: stitching K batches of m
// spans must cost the same whether the trace holds 10 spans or 1,000 —
// every RPC reply of a 36-vantage check imports into the same growing
// trace, and re-indexing it per reply was quadratic.
func TestImportSpansCostIndependentOfTraceSize(t *testing.T) {
	const k, m = 8, 4
	importCost := func(n int) float64 {
		tr, _ := NewTracer(4).Start("", "check")
		root := tr.Span("fanout")
		for i := 1; i < n; i++ {
			root.Child("vantage")
		}
		seq := 0
		tr.ImportSpans(batchUnder(root.ID(), &seq, m)) // the first import builds the index
		batches := make([][]WireSpan, 0, 64*k)
		for i := 0; i < cap(batches); i++ {
			batches = append(batches, batchUnder(root.ID(), &seq, m))
		}
		next := 0
		return testing.AllocsPerRun(50, func() {
			for i := 0; i < k; i++ {
				if got := tr.ImportSpans(batches[next]); got != m {
					t.Fatalf("imported %d of a fresh batch of %d", got, m)
				}
				next++
			}
		})
	}
	small, large := importCost(10), importCost(1000)
	// Map growth lands on different runs for different sizes; a
	// re-indexing import would be off by two orders of magnitude.
	if large > small*1.5+4 {
		t.Errorf("importing %d batches of %d spans allocates %.0f times into a 1,000-span trace but %.0f into a 10-span one", k, m, large, small)
	}
}

// TestImportSpansIndexedSemantics: the incremental index must not change
// what an import does — the same batch twice adds nothing, unknown parents
// hang at the root, cycles are broken, locally opened spans are found as
// parents, and a duplicate inside one batch is dropped.
func TestImportSpansIndexedSemantics(t *testing.T) {
	tracer := NewTracer(4)
	tr, _ := tracer.Start("", "check")
	root := tr.Span("fanout")
	if n := tr.ImportSpans(awkwardBatch()); n != 3 {
		t.Fatalf("first import added %d, want 3 (one duplicate ID)", n)
	}
	if n := tr.ImportSpans(awkwardBatch()); n != 0 {
		t.Errorf("second import of the same batch added %d, want 0", n)
	}
	// Spans opened after the index exists must resolve as parents.
	late := root.Child("late-vantage")
	if n := tr.ImportSpans([]WireSpan{{ID: "under-late", Parent: late.ID(), Name: "remote"}}); n != 1 {
		t.Fatalf("import under a late child added %d, want 1", n)
	}
	tr.Finish()
	v := tracer.Recent()[0]
	names := map[string]string{} // span name -> parent span name
	var walk func(parent string, sps []SpanView)
	walk = func(parent string, sps []SpanView) {
		for _, sp := range sps {
			names[sp.Name] = parent
			walk(sp.Name, sp.Children)
		}
	}
	walk("<root>", v.Spans)
	want := map[string]string{
		"fanout": "<root>", "late-vantage": "fanout", "remote": "late-vantage",
		"cyc-a": "<root>", "cyc-b": "cyc-a", "": "<root>",
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("stitched tree = %v, want %v", names, want)
	}
}

// TestFinishedTraceHoldsNoSpanIndex pins the retained-memory rule: a
// finished trace lives on in the recent ring and behind the completed-check
// cache, so the span-ID index must die at Finish — and an import that
// arrives afterwards (a late reply) must still work without reviving it.
func TestFinishedTraceHoldsNoSpanIndex(t *testing.T) {
	tr, _ := NewTracer(4).Start("", "check")
	root := tr.Span("fanout")
	seq := 0
	tr.ImportSpans(batchUnder(root.ID(), &seq, 3))
	if tr.index == nil {
		t.Fatal("a live trace that imported keeps no index: every import re-walks the trace")
	}
	tr.Finish()
	if tr.index != nil {
		t.Fatalf("finished trace still holds a %d-entry span index", len(tr.index))
	}
	if n := tr.ImportSpans(batchUnder(root.ID(), &seq, 2)); n != 2 {
		t.Errorf("import after Finish added %d, want 2", n)
	}
	if n := tr.ImportSpans([]WireSpan{{ID: "remote-1", Name: "again"}}); n != 0 {
		t.Errorf("import after Finish re-added an existing span")
	}
	if tr.index != nil {
		t.Error("an import after Finish revived the span index")
	}
}
