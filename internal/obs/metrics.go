// Package obs is the Price $heriff's stdlib-only telemetry subsystem:
// a concurrent metrics registry (counters, gauges, fixed-bucket latency
// histograms with quantile snapshots) exported in Prometheus text
// exposition format and JSON, plus lightweight per-price-check tracing
// (package file trace.go) with a bounded ring of recent completed traces.
//
// Metric names follow the scheme sheriff_<component>_<name>; counters end
// in _total and latency histograms in _seconds. All types are safe for
// concurrent use, and every operation is a no-op on a nil receiver so
// uninstrumented components pay nothing.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (pending jobs, open sessions).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add applies a delta.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets are the default latency buckets in seconds: half a
// millisecond up to the paper's 2-minute PPC timeout budget.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Exemplar links one histogram bucket to a representative trace: the
// last observation in the bucket that carried a trace ID, so a p99
// outlier bucket resolves directly to a trace in the ring.
type Exemplar struct {
	TraceID string    `json:"trace_id"`
	Value   float64   `json:"value"`
	Time    time.Time `json:"time"`
}

// Histogram is a fixed-bucket histogram. Observations land in the first
// bucket whose upper bound is >= the value; the final implicit bucket is
// +Inf. Observations made with a trace ID leave a per-bucket exemplar.
type Histogram struct {
	mu        sync.Mutex
	bounds    []float64
	counts    []uint64 // len(bounds)+1; last is +Inf
	sum       float64
	count     uint64
	exemplars []*Exemplar // lazily sized like counts
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.ObserveTrace(v, "")
}

// ObserveTrace records one value and, when traceID is non-empty, keeps
// it as the exemplar of the bucket the value landed in (replacing the
// bucket's previous exemplar).
func (h *Histogram) ObserveTrace(v float64, traceID string) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	if traceID != "" {
		if h.exemplars == nil {
			h.exemplars = make([]*Exemplar, len(h.counts))
		}
		h.exemplars[i] = &Exemplar{TraceID: traceID, Value: v, Time: time.Now()}
	}
	h.mu.Unlock()
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// ObserveSinceTrace records the seconds elapsed since t0 with an
// exemplar trace ID (empty behaves like ObserveSince).
func (h *Histogram) ObserveSinceTrace(t0 time.Time, traceID string) {
	if h == nil {
		return
	}
	h.ObserveTrace(time.Since(t0).Seconds(), traceID)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket holding the target rank, the same estimate Prometheus
// computes server-side. Returns 0 with no observations; observations in
// the +Inf bucket report the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(h.bounds) { // +Inf bucket
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// BucketCount is one cumulative histogram bucket for export. Exemplar,
// when set, is the bucket's representative trace.
type BucketCount struct {
	UpperBound float64   `json:"le"` // +Inf encoded as math.MaxFloat64 in JSON
	Count      uint64    `json:"count"`
	Exemplar   *Exemplar `json:"exemplar,omitempty"`
}

// HistogramSnapshot is a consistent point-in-time view.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	P50     float64       `json:"p50"`
	P95     float64       `json:"p95"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"-"`
}

// Snapshot captures counts, sum and the p50/p95/p99 estimates atomically.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	exemplars := append([]*Exemplar(nil), h.exemplars...)
	count, sum := h.count, h.sum
	h.mu.Unlock()

	snap := HistogramSnapshot{Count: count, Sum: sum}
	snap.Buckets = make([]BucketCount, 0, len(counts))
	var cum uint64
	for i, c := range counts {
		cum += c
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		b := BucketCount{UpperBound: ub, Count: cum}
		if i < len(exemplars) && exemplars[i] != nil {
			ex := *exemplars[i]
			b.Exemplar = &ex
		}
		snap.Buckets = append(snap.Buckets, b)
	}
	snap.P50 = h.Quantile(0.50)
	snap.P95 = h.Quantile(0.95)
	snap.P99 = h.Quantile(0.99)
	return snap
}

// Registry is a concurrent get-or-create store of named metrics. A series
// is identified by its name plus a canonical (sorted) label set; asking
// for the same series twice returns the same instance. All methods are
// safe on a nil *Registry (they return nil metrics, whose operations are
// no-ops).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// seriesKey builds the canonical series identity: name{k="v",...} with
// label keys sorted. kv is alternating key, value.
func seriesKey(name string, kv []string) string {
	if len(kv) == 0 {
		return name
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// Counter returns (creating if needed) the counter series name{kv...}.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	key := seriesKey(name, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge series name{kv...}.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	key := seriesKey(name, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Series resolves the members of one metric family that differ in a
// single label value — the per-method, per-shard, per-server series a hot
// path touches by a value it only learns at run time. The registry lookup
// (key string, sort, registry-wide mutex) is paid on the first touch of
// each value; every later touch is a read-locked map hit. Build one per
// family with NewSeries at construction.
type Series[T any] struct {
	resolve func(value string) *T
	mu      sync.RWMutex
	byValue map[string]*T
}

// NewSeries builds a family whose members resolve calls into a Registry
// for, e.g. func(v string) *Counter { return reg.Counter(name, "method", v) }.
func NewSeries[T any](resolve func(value string) *T) *Series[T] {
	return &Series[T]{resolve: resolve, byValue: make(map[string]*T)}
}

// With returns the series for one label value (nil on a nil family, or
// when the registry behind it is nil — both swallow every operation).
func (s *Series[T]) With(value string) *T {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	m, ok := s.byValue[value]
	s.mu.RUnlock()
	if ok {
		return m
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok = s.byValue[value]; !ok {
		m = s.resolve(value)
		// The key lives as long as the family; the value may be a view of
		// a wire frame (a server address off a heartbeat).
		s.byValue[strings.Clone(value)] = m
	}
	return m
}

// Histogram returns (creating if needed) a histogram with the default
// latency buckets.
func (r *Registry) Histogram(name string, kv ...string) *Histogram {
	return r.HistogramBuckets(name, nil, kv...)
}

// HistogramBuckets returns (creating if needed) a histogram with explicit
// bucket upper bounds; bounds are only applied on first creation.
func (r *Registry) HistogramBuckets(name string, bounds []float64, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	key := seriesKey(name, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		h = newHistogram(bounds)
		r.hists[key] = h
	}
	return h
}
