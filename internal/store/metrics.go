package store

import (
	"time"

	"pricesheriff/internal/obs"
)

// Metrics instruments the Database server's RPC surface: query throughput
// and latency per method, error counts, and rows returned by selects. A
// nil *Metrics disables instrumentation.
type Metrics struct {
	queries      *obs.Series[obs.Counter]   // by method
	querySeconds *obs.Series[obs.Histogram] // by method
	queryErrors  *obs.Counter
	rowsReturned *obs.Counter
}

// NewMetrics builds the store metric bundle.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		queries: obs.NewSeries(func(method string) *obs.Counter {
			return reg.Counter("sheriff_store_queries_total", "method", method)
		}),
		querySeconds: obs.NewSeries(func(method string) *obs.Histogram {
			return reg.Histogram("sheriff_store_query_seconds", "method", method)
		}),
		queryErrors:  reg.Counter("sheriff_store_query_errors_total"),
		rowsReturned: reg.Counter("sheriff_store_rows_returned_total"),
	}
}

// observe records one RPC: method is the bare name ("insert", "select",
// ...), rows the result-set size for selects (0 otherwise).
func (m *Metrics) observe(method string, t0 time.Time, rows int, err error) {
	if m == nil {
		return
	}
	m.queries.With(method).Inc()
	m.querySeconds.With(method).ObserveSince(t0)
	if rows > 0 {
		m.rowsReturned.Add(int64(rows))
	}
	if err != nil {
		m.queryErrors.Inc()
	}
}
