package main

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
	"time"

	"pricesheriff/internal/obs"
)

// runTrace implements `sheriffctl trace`: fetch /traces.json from the
// admin UI and print each matching trace as an indented span tree with
// per-hop timings — the cross-process waterfall assembled from every
// participating component's exported spans.
func runTrace(args []string) {
	c := docFlags("trace")
	minMS := c.Float64("min-ms", 0, "only traces at least this long")
	errOnly := c.Bool("err", false, "only errored or abandoned traces")
	words := c.parse(args)
	q := url.Values{}
	if len(words) > 0 {
		q.Set("id", words[0])
	}
	if *minMS > 0 {
		q.Set("min_ms", fmt.Sprintf("%g", *minMS))
	}
	if *errOnly {
		q.Set("err", "1")
	}
	path := "/traces.json"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}

	var views []obs.TraceView
	if !c.getAdminJSON(path, "traces", &views) {
		return
	}
	if len(views) == 0 {
		fmt.Println("no matching traces")
		return
	}
	for _, tv := range views {
		printTrace(tv)
	}
}

// printTrace renders one trace as an indented tree, one span per line
// with its offset, duration and attributes.
func printTrace(tv obs.TraceView) {
	fmt.Printf("%s  %s  %v\n", tv.ID, tv.Name, tv.Duration.Round(time.Microsecond))
	for _, k := range sortedKeys(tv.Attrs) {
		fmt.Printf("    %s=%s\n", k, tv.Attrs[k])
	}
	for _, sp := range tv.Spans {
		printSpan(sp, 1)
	}
}

func printSpan(sp obs.SpanView, depth int) {
	attrs := ""
	for _, k := range sortedKeys(sp.Attrs) {
		attrs += fmt.Sprintf(" %s=%s", k, sp.Attrs[k])
	}
	fmt.Printf("  %s%-*s +%-10v %v%s\n", strings.Repeat("  ", depth),
		40-2*depth, sp.Name, sp.Offset.Round(time.Microsecond),
		sp.Duration.Round(time.Microsecond), attrs)
	for _, c := range sp.Children {
		printSpan(c, depth+1)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runLogs implements `sheriffctl logs`: fetch /logs.json from the admin
// UI and print the records oldest-first, trace IDs included.
func runLogs(args []string) {
	c := docFlags("logs")
	level := c.String("level", "info", "minimum level: debug, info, warn, error")
	trace := c.String("trace", "", "only records stamped with this trace ID")
	limit := c.Int("limit", 200, "at most this many records")
	c.parseNone(args, "sheriffctl logs -admin HOST:PORT [-level warn] [-trace TRACE_ID] [-limit N] [-json]")
	q := url.Values{}
	q.Set("level", *level)
	q.Set("limit", fmt.Sprint(*limit))
	if *trace != "" {
		q.Set("trace", *trace)
	}

	var recs []obs.LogRecord
	if !c.getAdminJSON("/logs.json?"+q.Encode(), "logs", &recs) {
		return
	}
	// The endpoint returns newest first; print oldest first like a tail.
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		line := fmt.Sprintf("%s %-5s %s", rec.Time.Format("15:04:05.000"), rec.Level, rec.Msg)
		for _, k := range sortedKeys(rec.Attrs) {
			line += fmt.Sprintf(" %s=%s", k, rec.Attrs[k])
		}
		if rec.TraceID != "" {
			line += " trace_id=" + rec.TraceID
		}
		fmt.Println(line)
	}
}
