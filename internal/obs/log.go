package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"time"
)

// LogRecord is one entry in the in-memory log ring. Level is the
// slog level name (DEBUG, INFO, WARN, ERROR); TraceID/SpanID are stamped
// from the context the record was logged under, so /logs.json can be filtered
// down to exactly the lines interleaved with one distributed trace.
type LogRecord struct {
	Time    time.Time         `json:"time"`
	Level   string            `json:"level"`
	Msg     string            `json:"msg"`
	TraceID string            `json:"trace_id,omitempty"`
	SpanID  string            `json:"span_id,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`

	lvl slog.Level
}

// LogRing is a bounded in-memory ring of recent log records, shared by
// every Logger derived from one NewLogger call and served at the admin
// UI's /logs.json. All methods are safe on a nil *LogRing.
type LogRing struct {
	mu  sync.Mutex
	buf []LogRecord
	max int
}

// NewLogRing creates a ring keeping up to capacity records (default 1024).
func NewLogRing(capacity int) *LogRing {
	if capacity <= 0 {
		capacity = 1024
	}
	return &LogRing{max: capacity}
}

func (r *LogRing) add(rec LogRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf = append(r.buf, rec)
	if over := len(r.buf) - r.max; over > 0 {
		r.buf = append(r.buf[:0], r.buf[over:]...)
	}
	r.mu.Unlock()
}

// Records returns records at or above minLevel, newest first, keeping at
// most limit (0 = no limit). A non-empty traceID keeps only records
// stamped with that trace.
func (r *LogRing) Records(minLevel slog.Level, traceID string, limit int) []LogRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	buf := append([]LogRecord(nil), r.buf...)
	r.mu.Unlock()
	out := make([]LogRecord, 0, len(buf))
	for i := len(buf) - 1; i >= 0; i-- {
		rec := buf[i]
		if rec.lvl < minLevel {
			continue
		}
		if traceID != "" && rec.TraceID != traceID {
			continue
		}
		out = append(out, rec)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Len returns the number of buffered records.
func (r *LogRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// ParseLevel maps a level name (case-insensitive: debug, info, warn,
// error) to its slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q", s)
}

// Logger is a leveled structured logger: a log/slog JSON handler that
// stamps every record with trace_id/span_id from the context and mirrors
// it into a bounded LogRing. All methods are safe on a nil *Logger, so
// uninstrumented components pay nothing — the same contract as the
// metric types.
type Logger struct {
	sl   *slog.Logger
	ring *LogRing
}

// NewLogger builds a logger writing JSON lines to w (nil keeps records
// in the ring only) at minimum level, with a ring of ringCap records.
func NewLogger(w io.Writer, level slog.Level, ringCap int) *Logger {
	ring := NewLogRing(ringCap)
	var inner slog.Handler
	if w != nil {
		inner = slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})
	}
	h := &ctxHandler{inner: inner, ring: ring, level: level}
	return &Logger{sl: slog.New(h), ring: ring}
}

// With returns a derived logger whose records carry the given attributes
// (alternating key, value — the slog convention); the ring is shared.
func (l *Logger) With(args ...any) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{sl: l.sl.With(args...), ring: l.ring}
}

// Ring returns the shared log ring (nil on nil).
func (l *Logger) Ring() *LogRing {
	if l == nil {
		return nil
	}
	return l.ring
}

// Debug logs at DEBUG level; attrs alternate key, value.
func (l *Logger) Debug(ctx context.Context, msg string, args ...any) {
	l.log(ctx, slog.LevelDebug, msg, args...)
}

// Info logs at INFO level; attrs alternate key, value.
func (l *Logger) Info(ctx context.Context, msg string, args ...any) {
	l.log(ctx, slog.LevelInfo, msg, args...)
}

// Warn logs at WARN level; attrs alternate key, value.
func (l *Logger) Warn(ctx context.Context, msg string, args ...any) {
	l.log(ctx, slog.LevelWarn, msg, args...)
}

// Error logs at ERROR level; attrs alternate key, value.
func (l *Logger) Error(ctx context.Context, msg string, args ...any) {
	l.log(ctx, slog.LevelError, msg, args...)
}

func (l *Logger) log(ctx context.Context, lvl slog.Level, msg string, args ...any) {
	if l == nil || l.sl == nil {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	l.sl.Log(ctx, lvl, msg, args...)
}

// ctxHandler is the slog.Handler behind Logger: it resolves the current
// SpanContext from the record's context, mirrors the record into the
// ring, and forwards it (trace attributes appended) to the wrapped JSON
// handler.
type ctxHandler struct {
	inner slog.Handler
	ring  *LogRing
	level slog.Level
	attrs []slog.Attr // accumulated via WithAttrs
}

func (h *ctxHandler) Enabled(_ context.Context, lvl slog.Level) bool {
	return lvl >= h.level
}

func (h *ctxHandler) Handle(ctx context.Context, rec slog.Record) error {
	sc := SpanContextFrom(ctx)
	entry := LogRecord{
		Time:    rec.Time,
		Level:   rec.Level.String(),
		Msg:     rec.Message,
		TraceID: sc.TraceID,
		SpanID:  sc.SpanID,
		lvl:     rec.Level,
	}
	if n := rec.NumAttrs() + len(h.attrs); n > 0 {
		entry.Attrs = make(map[string]string, n)
		for _, a := range h.attrs {
			entry.Attrs[a.Key] = a.Value.String()
		}
		rec.Attrs(func(a slog.Attr) bool {
			entry.Attrs[a.Key] = a.Value.String()
			return true
		})
	}
	h.ring.add(entry)
	if h.inner == nil {
		return nil
	}
	out := rec.Clone()
	if sc.TraceID != "" {
		out.AddAttrs(slog.String("trace_id", sc.TraceID))
		if sc.SpanID != "" {
			out.AddAttrs(slog.String("span_id", sc.SpanID))
		}
	}
	return h.inner.Handle(ctx, out)
}

func (h *ctxHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := &ctxHandler{ring: h.ring, level: h.level}
	nh.attrs = append(append([]slog.Attr(nil), h.attrs...), attrs...)
	if h.inner != nil {
		nh.inner = h.inner.WithAttrs(attrs)
	}
	return nh
}

func (h *ctxHandler) WithGroup(name string) slog.Handler {
	// Groups are not used by the sheriff's call sites; keep the ring flat
	// and delegate grouping to the JSON output only.
	nh := &ctxHandler{ring: h.ring, level: h.level, attrs: h.attrs}
	if h.inner != nil {
		nh.inner = h.inner.WithGroup(name)
	}
	return nh
}
