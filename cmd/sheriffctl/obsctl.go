package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"pricesheriff/internal/obs"
)

// getAdminJSON fetches one admin-UI JSON document and decodes it into out,
// or with raw prints it to stdout indented instead. Any failure ends the
// command; what names the document in the message.
func getAdminJSON(admin, path, what string, out any, raw bool) {
	resp, err := adminClient().Get("http://" + admin + path)
	if err != nil {
		log.Fatalf("fetch %s: %v", what, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("fetch %s: %v", what, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := fmt.Sprintf("fetch %s: status %d", what, resp.StatusCode)
		if text := strings.TrimSpace(string(body)); text != "" {
			msg += ": " + text
		}
		log.Fatal(msg)
	}
	if raw {
		var b bytes.Buffer
		if err := json.Indent(&b, body, "", "  "); err != nil {
			log.Fatalf("decode %s: %v", what, err)
		}
		fmt.Println(b.String())
		return
	}
	if err := json.Unmarshal(body, out); err != nil {
		log.Fatalf("decode %s: %v", what, err)
	}
}

// runTrace implements `sheriffctl trace`: fetch /traces.json from the
// admin UI and print each matching trace as an indented span tree with
// per-hop timings — the cross-process waterfall assembled from every
// participating component's exported spans.
func runTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	admin := fs.String("admin", "", "admin UI address (required; sheriffd prints it)")
	minMS := fs.Float64("min-ms", 0, "only traces at least this long")
	errOnly := fs.Bool("err", false, "only errored or abandoned traces")
	raw := fs.Bool("json", false, "print the raw JSON")
	fs.Parse(args)
	if *admin == "" {
		log.Fatal("need -admin (sheriffd prints the admin web ui address)")
	}
	q := url.Values{}
	if id := fs.Arg(0); id != "" {
		q.Set("id", id)
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
	getAdminJSON(*admin, path, "traces", &views, *raw)
	if *raw {
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
	fs := flag.NewFlagSet("logs", flag.ExitOnError)
	admin := fs.String("admin", "", "admin UI address (required; sheriffd prints it)")
	level := fs.String("level", "info", "minimum level: debug, info, warn, error")
	trace := fs.String("trace", "", "only records stamped with this trace ID")
	limit := fs.Int("limit", 200, "at most this many records")
	raw := fs.Bool("json", false, "print the raw JSON")
	fs.Parse(args)
	if *admin == "" {
		log.Fatal("need -admin (sheriffd prints the admin web ui address)")
	}
	q := url.Values{}
	q.Set("level", *level)
	q.Set("limit", fmt.Sprint(*limit))
	if *trace != "" {
		q.Set("trace", *trace)
	}

	var recs []obs.LogRecord
	getAdminJSON(*admin, "/logs.json?"+q.Encode(), "logs", &recs, *raw)
	if *raw {
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
