package history

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"pricesheriff/internal/store"
)

// PointsTable holds one row per (product URL, vantage country, time)
// price observation. It lives in the main store, so points ride the same
// WAL as everything else — the in-memory Index is a pure cache rebuilt
// from this table at boot.
var PointsTable = store.TableSpec{
	Name:  "history_points",
	Index: []string{"url", "country"},
}

// SeriesKey identifies one longitudinal price series.
type SeriesKey struct {
	URL     string
	Country string
}

func (k SeriesKey) String() string { return k.URL + " @ " + k.Country }

// Point is one observation in a series.
type Point struct {
	T     time.Time `json:"t"`
	Price float64   `json:"price"`
}

// Index is the in-memory time-series view over history_points: fast
// per-series range queries and downsampling for dashboard rendering.
// Durability comes from the backing table, not from the Index.
type Index struct {
	mu      sync.RWMutex
	series  map[SeriesKey][]Point
	metrics *Metrics
}

// NewIndex builds an empty index.
func NewIndex(m *Metrics) *Index {
	return &Index{series: make(map[SeriesKey][]Point), metrics: m}
}

// Load rebuilds the index from the history_points table (missing table =
// fresh deployment, not an error).
func (ix *Index) Load(db *store.DB) error {
	// Build the replacement aside and swap it in whole, so Load doubles
	// as a refresh after a snapshot import without duplicating points
	// the cache already holds. Points stream through ScanRange instead
	// of a materialized Select: history_points is exactly the table that
	// spills to the disk engine, and boot-time Load must not pull a
	// year of history into one slice.
	fresh := make(map[SeriesKey][]Point)
	var loadErr error
	err := db.ScanRange(PointsTable.Name, 0, 0, func(id int64, r store.Row) bool {
		key, pt, err := pointFromRow(r)
		if err != nil {
			loadErr = err
			return false
		}
		s := fresh[key]
		if n := len(s); n > 0 && pt.T.Before(s[n-1].T) {
			at := sort.Search(n, func(i int) bool { return s[i].T.After(pt.T) })
			s = append(s, Point{})
			copy(s[at+1:], s[at:])
			s[at] = pt
		} else {
			s = append(s, pt)
		}
		fresh[key] = s
		ix.metrics.pointAppended()
		return true
	})
	if loadErr != nil {
		return loadErr
	}
	if err != nil {
		if err == store.ErrNoTable {
			return nil
		}
		return err
	}
	ix.mu.Lock()
	ix.series = fresh
	ix.mu.Unlock()
	return nil
}

// PointRow converts an observation to its durable row form. Timestamps
// are stored as unix milliseconds: exact in a float64 and sortable as a
// numeric column.
func PointRow(key SeriesKey, pt Point) store.Row {
	return store.Row{
		"url":     key.URL,
		"country": key.Country,
		"ts_ms":   float64(pt.T.UnixMilli()),
		"price":   pt.Price,
	}
}

func pointFromRow(r store.Row) (SeriesKey, Point, error) {
	url, _ := r["url"].(string)
	country, _ := r["country"].(string)
	ms, okT := r["ts_ms"].(float64)
	price, okP := r["price"].(float64)
	if url == "" || country == "" || !okT || !okP {
		return SeriesKey{}, Point{}, fmt.Errorf("history: malformed history_points row %v", r)
	}
	return SeriesKey{URL: url, Country: country},
		Point{T: time.UnixMilli(int64(ms)).UTC(), Price: price}, nil
}

// Append adds one observation to a series, keeping the series sorted by
// time (out-of-order arrivals are inserted, not rejected).
func (ix *Index) Append(key SeriesKey, pt Point) {
	ix.mu.Lock()
	s := ix.series[key]
	if n := len(s); n > 0 && pt.T.Before(s[n-1].T) {
		at := sort.Search(n, func(i int) bool { return s[i].T.After(pt.T) })
		s = append(s, Point{})
		copy(s[at+1:], s[at:])
		s[at] = pt
	} else {
		s = append(s, pt)
	}
	ix.series[key] = s
	ix.mu.Unlock()
	ix.metrics.pointAppended()
}

// Series lists every series key, sorted.
func (ix *Index) Series() []SeriesKey {
	ix.mu.RLock()
	keys := make([]SeriesKey, 0, len(ix.series))
	for k := range ix.series {
		keys = append(keys, k)
	}
	ix.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].URL != keys[j].URL {
			return keys[i].URL < keys[j].URL
		}
		return keys[i].Country < keys[j].Country
	})
	return keys
}

// Len returns the number of points in a series.
func (ix *Index) Len(key SeriesKey) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.series[key])
}

// Range returns the points of a series with from <= T < to, copied. A
// zero `to` means unbounded.
func (ix *Index) Range(key SeriesKey, from, to time.Time) []Point {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s := ix.series[key]
	lo := sort.Search(len(s), func(i int) bool { return !s[i].T.Before(from) })
	hi := len(s)
	if !to.IsZero() {
		hi = sort.Search(len(s), func(i int) bool { return !s[i].T.Before(to) })
	}
	out := make([]Point, hi-lo)
	copy(out, s[lo:hi])
	return out
}

// Bucket is one fixed-width downsampling bucket.
type Bucket struct {
	T     time.Time // bucket start
	Min   float64
	Max   float64
	Mean  float64
	Count int
}

// Downsample folds sorted points into at most n fixed-width time buckets
// spanning [first, last] — the dashboard sparkline's input. Empty buckets
// are omitted.
func Downsample(points []Point, n int) []Bucket {
	if len(points) == 0 || n <= 0 {
		return nil
	}
	first, last := points[0].T, points[len(points)-1].T
	span := last.Sub(first)
	if span <= 0 {
		span = time.Millisecond
	}
	width := span / time.Duration(n)
	if width <= 0 {
		width = time.Millisecond
	}
	buckets := make([]Bucket, 0, n)
	var cur *Bucket
	var curIdx int = -1
	for _, p := range points {
		i := int(p.T.Sub(first) / width)
		if i >= n {
			i = n - 1
		}
		if i != curIdx {
			buckets = append(buckets, Bucket{
				T:   first.Add(time.Duration(i) * width),
				Min: p.Price, Max: p.Price,
			})
			cur = &buckets[len(buckets)-1]
			curIdx = i
		}
		if p.Price < cur.Min {
			cur.Min = p.Price
		}
		if p.Price > cur.Max {
			cur.Max = p.Price
		}
		cur.Mean += p.Price
		cur.Count++
	}
	for i := range buckets {
		buckets[i].Mean /= float64(buckets[i].Count)
	}
	return buckets
}
