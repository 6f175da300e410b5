package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// procTag is a per-process random tag mixed into generated trace and span
// IDs so IDs minted by different processes of one deployment never
// collide when their spans are stitched into a single trace.
var procTag = func() string {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Sprintf("%08x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}()

// spanSeq numbers spans within this process; traceSeq numbers generated
// trace IDs. Both are process-wide — not per Tracer — so two tracers in
// one process (e.g. a test harness alongside a System) never collide.
var (
	spanSeq  atomic.Uint64
	traceSeq atomic.Uint64
)

var spanIDPrefix = "s-" + procTag + "-"

func nextSpanID() string {
	var buf [40]byte
	b := append(buf[:0], spanIDPrefix...)
	return string(strconv.AppendUint(b, spanSeq.Add(1), 10))
}

// Defaults for the active-trace leak guards (see Tracer.MaxActive and
// Tracer.ActiveTTL).
const (
	DefaultMaxActive = 1024
	DefaultActiveTTL = 10 * time.Minute
)

// Tracer tracks per-price-check traces: spans for the five protocol steps
// of Sect. 3.2 (submit → schedule → fan-out → extract/convert → persist)
// with per-vantage-point child spans, stitched across processes by the
// transport layer (see WireSpan). Completed traces land in a bounded
// in-memory ring behind /traces.json and sheriffctl trace. All methods
// are safe on a nil *Tracer, and a nil *Trace / *Span swallows every
// operation, so call sites need no guards.
type Tracer struct {
	// MaxActive caps the active map: when a Start would exceed it, the
	// oldest active traces are force-finished with an abandoned mark.
	// Zero means DefaultMaxActive.
	MaxActive int
	// ActiveTTL force-finishes any active trace older than this on the
	// next Start (or explicit SweepAbandoned). A trace whose owner
	// crashed before Finish would otherwise pin memory forever. Zero
	// means DefaultActiveTTL.
	ActiveTTL time.Duration
	// Abandoned, when set, counts traces force-finished by the TTL sweep
	// or the MaxActive cap.
	Abandoned *Counter
	// Sample decides whether a trace created with a generated ID is
	// propagated across process boundaries (the sampling bit on the wire
	// header). nil samples everything. Unsampled traces are still
	// recorded locally.
	Sample func(name string) bool

	mu     sync.Mutex
	active map[string]*Trace
	recent []*Trace // oldest first, bounded by cap
	cap    int
}

// NewTracer creates a tracer keeping up to capacity completed traces
// (default 64).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 64
	}
	return &Tracer{active: make(map[string]*Trace), cap: capacity}
}

// Start returns the active trace with the given ID, creating it if
// absent; created reports whether this call created it (the creator is
// responsible for calling Finish). An empty id generates a fresh one —
// generated IDs always create.
func (t *Tracer) Start(id, name string) (tr *Trace, created bool) {
	if t == nil {
		return nil, false
	}
	t.sweep(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	sampled := true
	if id == "" {
		id = fmt.Sprintf("tr-%s-%06d", procTag, traceSeq.Add(1))
		if t.Sample != nil {
			sampled = t.Sample(name)
		}
	} else if tr, ok := t.active[id]; ok {
		return tr, false
	}
	tr = &Trace{id: id, name: name, start: time.Now(), sampled: sampled, tracer: t}
	t.active[id] = tr
	return tr, true
}

// SweepAbandoned force-finishes active traces older than ActiveTTL and,
// beyond that, the oldest traces over the MaxActive cap. Swept traces
// are annotated abandoned=true, counted on the Abandoned counter, and
// moved to the recent ring like a normal Finish. Returns the number
// swept. Start runs the same sweep lazily, so a busy tracer needs no
// background goroutine; call this periodically only on mostly-idle
// processes that still want prompt reclamation.
func (t *Tracer) SweepAbandoned(now time.Time) int {
	if t == nil {
		return 0
	}
	return t.sweep(now)
}

func (t *Tracer) sweep(now time.Time) int {
	ttl := t.ActiveTTL
	if ttl <= 0 {
		ttl = DefaultActiveTTL
	}
	max := t.MaxActive
	if max <= 0 {
		max = DefaultMaxActive
	}
	t.mu.Lock()
	var stale []*Trace
	for _, tr := range t.active {
		if now.Sub(tr.startTime()) > ttl {
			stale = append(stale, tr)
		}
	}
	if keep := len(t.active) - len(stale); keep >= max {
		// Still at the cap after the TTL pass: abandon oldest first.
		live := make([]*Trace, 0, keep)
		inStale := make(map[*Trace]bool, len(stale))
		for _, tr := range stale {
			inStale[tr] = true
		}
		for _, tr := range t.active {
			if !inStale[tr] {
				live = append(live, tr)
			}
		}
		sort.Slice(live, func(i, j int) bool { return live[i].startTime().Before(live[j].startTime()) })
		stale = append(stale, live[:keep-max+1]...)
	}
	t.mu.Unlock()
	for _, tr := range stale {
		tr.Annotate("abandoned", "true")
		tr.Finish()
		t.Abandoned.Inc()
	}
	return len(stale)
}

// ActiveCount returns the number of unfinished traces.
func (t *Tracer) ActiveCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.active)
}

// Recent returns views of completed traces, newest first.
func (t *Tracer) Recent() []TraceView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	traces := append([]*Trace(nil), t.recent...)
	t.mu.Unlock()
	views := make([]TraceView, 0, len(traces))
	for i := len(traces) - 1; i >= 0; i-- {
		views = append(views, traces[i].view())
	}
	return views
}

// Lookup returns the view of the trace with the given ID, searching the
// active set first and then the recent ring (newest first).
func (t *Tracer) Lookup(id string) (TraceView, bool) {
	if t == nil {
		return TraceView{}, false
	}
	t.mu.Lock()
	tr, ok := t.active[id]
	if !ok {
		for i := len(t.recent) - 1; i >= 0; i-- {
			if t.recent[i].id == id {
				tr, ok = t.recent[i], true
				break
			}
		}
	}
	t.mu.Unlock()
	if !ok {
		return TraceView{}, false
	}
	return tr.view(), true
}

func (t *Tracer) finish(tr *Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.active, tr.id)
	t.recent = append(t.recent, tr)
	if over := len(t.recent) - t.cap; over > 0 {
		t.recent = append(t.recent[:0], t.recent[over:]...)
	}
}

// Trace is one price check's span tree. Spans may be added and ended
// concurrently (the fan-out step runs one goroutine per vantage point).
type Trace struct {
	id      string
	name    string
	start   time.Time
	sampled bool
	tracer  *Tracer

	mu    sync.Mutex
	spans []*Span
	attrs [][2]string
	end   time.Time
	done  bool
	// index maps span ID to span for ImportSpans, which builds it on its
	// first call; from then on Span, Child and ImportSpans insert into it,
	// so stitching a reply costs O(batch) however large the trace has
	// grown. A trace that never imports never has one, and Finish drops
	// it: a finished trace sits in the recent ring (and behind the
	// completed-check cache), where an index would be retained memory
	// serving nothing.
	index map[string]*Span
}

// NewRemoteTrace creates an unregistered trace joined to a trace ID that
// originated in another process. RPC servers use it to collect the spans
// of one handler execution; the collected tree is shipped back to the
// originating process with Export and never enters a local ring.
func NewRemoteTrace(id string) *Trace {
	return &Trace{id: id, name: "remote " + id, start: time.Now(), sampled: true}
}

// ID returns the trace identifier ("" on nil).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// Sampled reports whether this trace propagates across process
// boundaries (false on nil).
func (tr *Trace) Sampled() bool {
	if tr == nil {
		return false
	}
	return tr.sampled
}

// Context returns the trace's wire identity with no span selected.
func (tr *Trace) Context() SpanContext {
	if tr == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: tr.id, Sampled: tr.sampled}
}

func (tr *Trace) startTime() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return tr.start
}

// Annotate attaches a key/value to the trace.
func (tr *Trace) Annotate(k, v string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.attrs = append(tr.attrs, [2]string{k, v})
	tr.mu.Unlock()
}

// Span opens a top-level span.
func (tr *Trace) Span(name string, kv ...string) *Span {
	if tr == nil {
		return nil
	}
	sp := newSpan(tr, "", name, kv)
	tr.mu.Lock()
	tr.spans = append(tr.spans, sp)
	if tr.index != nil {
		tr.index[sp.id] = sp
	}
	tr.mu.Unlock()
	return sp
}

// Finish completes the trace and moves it into the tracer's recent ring.
// Finishing twice is harmless.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.done {
		tr.mu.Unlock()
		return
	}
	tr.done = true
	tr.end = time.Now()
	tr.index = nil
	tr.mu.Unlock()
	if tr.tracer != nil {
		tr.tracer.finish(tr)
	}
}

// Span is one timed step inside a trace. Every span has a process-unique
// ID so remote spans can be stitched under their parent after crossing
// an RPC boundary.
type Span struct {
	trace    *Trace
	id       string
	parent   string // parent span ID; "" for a trace root
	name     string
	start    time.Time
	end      time.Time
	ended    bool
	pending  bool // ImportSpans only: created from a batch, not hung yet
	attrs    [][2]string
	children []*Span
}

func newSpan(tr *Trace, parent, name string, kv []string) *Span {
	sp := &Span{trace: tr, id: nextSpanID(), parent: parent, name: name, start: time.Now()}
	for i := 0; i+1 < len(kv); i += 2 {
		sp.attrs = append(sp.attrs, [2]string{kv[i], kv[i+1]})
	}
	return sp
}

// ID returns the span identifier ("" on nil).
func (sp *Span) ID() string {
	if sp == nil {
		return ""
	}
	return sp.id
}

// Trace returns the trace this span belongs to (nil on nil).
func (sp *Span) Trace() *Trace {
	if sp == nil {
		return nil
	}
	return sp.trace
}

// Context returns the span's wire identity: trace ID, span ID, and the
// trace's sampling bit. The zero SpanContext on nil.
func (sp *Span) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: sp.trace.ID(), SpanID: sp.id, Sampled: sp.trace.Sampled()}
}

// Child opens a nested span.
func (sp *Span) Child(name string, kv ...string) *Span {
	if sp == nil {
		return nil
	}
	c := newSpan(sp.trace, sp.id, name, kv)
	sp.trace.mu.Lock()
	sp.children = append(sp.children, c)
	if sp.trace.index != nil {
		sp.trace.index[c.id] = c
	}
	sp.trace.mu.Unlock()
	return c
}

// Annotate attaches a key/value to the span.
func (sp *Span) Annotate(k, v string) {
	if sp == nil {
		return
	}
	sp.trace.mu.Lock()
	sp.attrs = append(sp.attrs, [2]string{k, v})
	sp.trace.mu.Unlock()
}

// End closes the span.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.trace.mu.Lock()
	if !sp.ended {
		sp.ended = true
		sp.end = time.Now()
	}
	sp.trace.mu.Unlock()
}

// EndErr closes the span, annotating the error when non-nil.
func (sp *Span) EndErr(err error) {
	if err != nil {
		sp.Annotate("error", err.Error())
	}
	sp.End()
}

// TraceView is an immutable rendering of a trace.
type TraceView struct {
	ID       string            `json:"id"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Spans    []SpanView        `json:"spans"`
}

// HasError reports whether the trace or any span in it carries an
// "error" or "abandoned" attribute; the /traces.json err=1 filter keys on it.
func (v TraceView) HasError() bool {
	if v.Attrs["error"] != "" || v.Attrs["abandoned"] != "" {
		return true
	}
	var any func(sps []SpanView) bool
	any = func(sps []SpanView) bool {
		for _, sp := range sps {
			if sp.Attrs["error"] != "" || any(sp.Children) {
				return true
			}
		}
		return false
	}
	return any(v.Spans)
}

// SpanView is an immutable rendering of a span; Offset is relative to the
// trace start.
type SpanView struct {
	ID       string            `json:"span_id,omitempty"`
	Name     string            `json:"name"`
	Offset   time.Duration     `json:"offset"`
	Duration time.Duration     `json:"duration"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []SpanView        `json:"children,omitempty"`
}

func (tr *Trace) view() TraceView {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	v := TraceView{ID: tr.id, Name: tr.name, Start: tr.start, Attrs: attrMap(tr.attrs)}
	end := tr.end
	if end.IsZero() {
		end = time.Now()
	}
	v.Duration = end.Sub(tr.start)
	for _, sp := range tr.spans {
		v.Spans = append(v.Spans, sp.viewLocked(tr.start, end))
	}
	return v
}

func (sp *Span) viewLocked(traceStart, traceEnd time.Time) SpanView {
	end := sp.end
	if end.IsZero() {
		end = traceEnd
	}
	v := SpanView{
		ID:       sp.id,
		Name:     sp.name,
		Offset:   sp.start.Sub(traceStart),
		Duration: end.Sub(sp.start),
		Attrs:    attrMap(sp.attrs),
	}
	for _, c := range sp.children {
		v.Children = append(v.Children, c.viewLocked(traceStart, traceEnd))
	}
	return v
}

func attrMap(attrs [][2]string) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, kv := range attrs {
		m[kv[0]] = kv[1]
	}
	return m
}

// SpanContext is the wire identity of one point in a trace: what crosses
// a process boundary in the Envelope header (or a peer.Msg relay frame).
type SpanContext struct {
	TraceID string
	SpanID  string
	Sampled bool
}

// Valid reports whether the context names a trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" }

type traceCtxKey struct{}
type spanCtxKey struct{}

// WithTrace attaches a trace to a context for in-process propagation;
// across RPC boundaries the trace ID travels on the frame instead
// (Envelope.TraceID, CheckRequest.TraceID).
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tr)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return tr
}

// / WithSpan marks sp as the context's current span: RPC clients open
// their per-call child spans under it and propagate its identity on the
// wire. Attaching a span also attaches its trace.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp != nil {
		ctx = WithTrace(ctx, sp.trace)
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFrom returns the context's current span, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// SpanContextFrom extracts the wire identity of the context's current
// span, falling back to the bare trace (no span ID) when only a trace is
// attached. The zero SpanContext when the context carries neither.
func SpanContextFrom(ctx context.Context) SpanContext {
	if sp := SpanFrom(ctx); sp != nil {
		return sp.Context()
	}
	return TraceFrom(ctx).Context()
}
