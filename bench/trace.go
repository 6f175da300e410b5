package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/core"
	"pricesheriff/internal/history"
	"pricesheriff/internal/htmlx"
	"pricesheriff/internal/measurement"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/shop"
)

// span is one timed call of the unrolled check. Spans of one check share its
// identifier; Parent is the span that caused this one (-1 for the root).
type span struct {
	Check  int    `json:"check"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. The traced checks are
// sequential, so it needs no lock.
type recorder struct {
	epoch time.Time
	spans []span
}

func (r *recorder) begin(check, parent int, name string) int {
	r.spans = append(r.spans, span{Check: check, ID: len(r.spans), Parent: parent, Name: name, Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.epoch)) }

// captured is what one unrolled check handed to the layers behind the await:
// the inputs the replays run on.
type captured struct {
	JobID  string
	URL    string
	Domain string
	HTML   string
	Path   htmlx.TagsPath
	Rows   []measurement.ResultRow
}

// Span names of the unrolled check, in call order. Each is one exported
// function that System.PriceCheckContext calls on the submitting side.
const (
	spanCheck   = "core.check"
	spanBrowse  = "browser.browse"
	spanSelect  = "htmlx.select"
	spanNewJob  = "coordinator.new_job"
	spanDial    = "transport.dial"
	spanSubmit  = "measurement.submit"
	spanAwait   = "measurement.await"
	spanHistory = "history.record"
	spanClose   = "transport.close"
)

// unrolledCheck is System.PriceCheckContext taken apart: the same exported
// calls in the same order with the same arguments, each under one span. It
// lives here so that the production path stays free of benchmark hooks; the
// price is that it must be kept in step with core.priceCheckOrigin, which
// TestUnrolledMatchesPriceCheck and core.trace_overhead_pct both watch.
func (d *deployment) unrolledCheck(ctx context.Context, rec *recorder, id int, userID, url string) (*core.CheckResult, *captured, error) {
	sys := d.sys
	root := rec.begin(id, -1, spanCheck)
	defer rec.end(root)
	timed := func(name string, f func()) {
		sp := rec.begin(id, root, name)
		f()
		rec.end(sp)
	}

	u, ok := sys.User(userID)
	if !ok {
		return nil, nil, fmt.Errorf("unknown user %q", userID)
	}
	if sys.PIIBlacklist.Blocked(url) {
		return nil, nil, core.ErrPIIBlacklisted
	}
	domain, _, err := shop.ParseProductURL(url)
	if err != nil {
		return nil, nil, err
	}
	day := sys.Day()

	start := time.Now()
	tr, _ := sys.Tracer().Start("", "check "+url)
	tr.Annotate("user", userID)
	ctx = obs.WithTrace(ctx, tr)
	defer func() {
		if err != nil {
			tr.Annotate("error", err.Error())
		}
		tr.Finish()
		sys.Metrics().Counter("sheriff_core_checks_total").Inc()
		sys.Metrics().Histogram("sheriff_core_check_seconds").ObserveSinceTrace(start, tr.ID())
	}()

	submit := tr.Span("submit")
	var resp *shop.FetchResponse
	timed(spanBrowse, func() {
		resp, err = u.Browser.BrowseProduct(obs.WithSpan(ctx, submit), u.Node.Fetcher, url, day)
	})
	if err != nil {
		submit.EndErr(err)
		return nil, nil, err
	}
	if resp.Status != 200 {
		submit.End()
		err = fmt.Errorf("product page returned status %d", resp.Status)
		return nil, nil, err
	}
	var path htmlx.TagsPath
	timed(spanSelect, func() { path, err = core.SelectPrice(resp.HTML) })
	submit.EndErr(err)
	if err != nil {
		return nil, nil, err
	}

	sched := tr.Span("schedule")
	var job *coordinator.Job
	timed(spanNewJob, func() { job, err = sys.Coord.NewJob(obs.WithSpan(ctx, sched), domain, userID) })
	sched.EndErr(err)
	if err != nil {
		return nil, nil, err
	}
	tr.Annotate("job", job.ID)

	var msCli *measurement.Client
	timed(spanDial, func() { msCli, err = measurement.DialMeasurement(sys.Fabric(), job.ServerAddr) })
	if err != nil {
		return nil, nil, err
	}
	defer timed(spanClose, func() { msCli.Close() })

	await := tr.Span("await")
	check := &measurement.CheckRequest{
		JobID: job.ID, URL: url, TagsPath: path, InitiatorHTML: resp.HTML, InitiatorID: userID,
		Currency: "EUR", Day: day, TraceID: tr.ID(), ParentSpanID: await.ID(),
	}
	timed(spanSubmit, func() { err = msCli.CheckCtx(obs.WithSpan(ctx, await), check) })
	if err != nil {
		await.EndErr(err)
		return nil, nil, err
	}
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	var rows []measurement.ResultRow
	timed(spanAwait, func() { rows, err = msCli.WaitResultsCtx(wctx, job.ID) })
	await.EndErr(err)
	if err != nil {
		return nil, nil, err
	}
	timed(spanHistory, func() { recordHistory(sys, url, rows) })

	res := &core.CheckResult{JobID: job.ID, URL: url, Domain: domain, Currency: "EUR", Rows: rows}
	return res, &captured{JobID: job.ID, URL: url, Domain: domain, HTML: resp.HTML, Path: path, Rows: rows}, nil
}

// recordHistory is core.System.recordHistory through exported doors: one
// point per vantage country, inserted durably first and indexed second.
func recordHistory(sys *core.System, url string, rows []measurement.ResultRow) {
	now := time.UnixMilli(time.Now().UnixMilli()).UTC()
	best := map[string]float64{}
	for _, row := range rows {
		if row.Err != "" || row.Converted <= 0 || row.Country == "" {
			continue
		}
		if cur, ok := best[row.Country]; !ok || row.Converted < cur {
			best[row.Country] = row.Converted
		}
	}
	for country, price := range best {
		key := history.SeriesKey{URL: url, Country: country}
		pt := history.Point{T: now, Price: price}
		if _, err := sys.StoreEngine().Insert(history.PointsTable.Name, history.PointRow(key, pt)); err != nil {
			continue
		}
		sys.History().Append(key, pt)
	}
}

// rowShape is what must agree between the unrolled check and the real one:
// how many rows of which kind from which country.
func rowShape(rows []measurement.ResultRow) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Kind + "/" + r.Country
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// layerMetric is one per-layer number.
type layerMetric struct {
	Name  string
	Unit  string
	Value float64
}

// tracedCounts is how many operations the traced run validated.
type tracedCounts struct{ attempted, failed int }

// traceWorkload is the traced run: a fresh system of the same workload,
// sequential unrolled checks paired with real ones on the same URL
// sequence, the budget table from their spans, the replays of the layers
// hidden behind the await, and the ratios of the system's own counters over
// the measured phase m. Nothing here touches the end-to-end numbers.
func traceWorkload(g *Grid, w *Workload, opts runOptions, m *measured, out io.Writer) ([]layerMetric, tracedCounts, error) {
	var tc tracedCounts
	d, err := boot(w, g)
	if err != nil {
		return nil, tc, err
	}
	defer d.close()
	ctx := context.Background()

	n, replays := w.TraceChecks, g.ReplayIters
	if opts.Quick {
		n, replays = 24, 100
	}
	seq := buildPlan(w, g, opts.Seed^0x7ace, n, len(d.users), len(d.urls), false)

	// Fill the caches a sequential pass depends on before timing anything.
	for i := 0; i < n/10+4; i++ {
		op := seq.Checks[i%n]
		res, err := d.sys.PriceCheckContext(ctx, d.users[op.User], d.urls[op.URL])
		tc.attempted++
		if v, _ := judge(res, err, d.exp); v != valid {
			tc.failed++
		}
	}

	rec := &recorder{epoch: time.Now(), spans: make([]span, 0, n*10)}
	caps := make([]*captured, 0, n)
	unrolledMS, plainMS := make([]float64, 0, n), make([]float64, 0, n)
	var walKB []float64
	walGauge := d.sys.Metrics().Gauge("sheriff_history_wal_bytes")
	firstWhy := ""
	note := func(what string, v verdict, why string) {
		tc.attempted++
		if v != valid {
			tc.failed++
			if firstWhy == "" {
				firstWhy = fmt.Sprintf("%s (%s): %s", what, v, why)
			}
		}
	}
	for i, op := range seq.Checks {
		user, url := d.users[op.User], d.urls[op.URL]
		var ures, pres *core.CheckResult
		runUnrolled := func() {
			wal0 := walGauge.Value()
			t0 := time.Now()
			res, c, err := d.unrolledCheck(ctx, rec, i, user, url)
			unrolledMS = append(unrolledMS, float64(time.Since(t0))/1e6)
			if grown := walGauge.Value() - wal0; grown > 0 { // a compaction in between shrinks it
				walKB = append(walKB, float64(grown)/1024)
			}
			v, why := judge(res, err, d.exp)
			note("unrolled check", v, why)
			if v == valid {
				ures = res
				caps = append(caps, c)
			}
		}
		runPlain := func() {
			t0 := time.Now()
			res, err := d.sys.PriceCheckContext(ctx, user, url)
			plainMS = append(plainMS, float64(time.Since(t0))/1e6)
			v, why := judge(res, err, d.exp)
			note("paired check", v, why)
			if v == valid {
				pres = res
			}
		}
		// Alternate which goes first so that neither always runs on the
		// caches the other just warmed.
		if i%2 == 0 {
			runUnrolled()
			runPlain()
		} else {
			runPlain()
			runUnrolled()
		}
		if ures != nil && pres != nil && rowShape(ures.Rows) != rowShape(pres.Rows) {
			note("unrolled check", invalid, fmt.Sprintf("rows %s, PriceCheckContext returned %s", rowShape(ures.Rows), rowShape(pres.Rows)))
		}
	}
	if len(caps) == 0 {
		return nil, tc, fmt.Errorf("%s: no valid unrolled check: %s", w.Name, firstWhy)
	}

	// Budget: every span below the root is a leaf, so a layer's self time
	// is its span's duration, and what the root does not hand to any of
	// them is the residual.
	wallMS := mean(unrolledMS)
	selfMS := map[string]float64{}
	for _, s := range rec.spans {
		if s.Parent >= 0 {
			selfMS[s.Name] += float64(s.End-s.Start) / 1e6 / float64(n)
		}
	}
	attributed := 0.0
	for _, v := range selfMS {
		attributed += v
	}
	residual := wallMS - attributed
	fmt.Fprintf(out, "budget of the unrolled check (%d sequential checks, mean %.4f ms):\n", n, wallMS)
	for _, name := range []string{spanBrowse, spanSelect, spanNewJob, spanDial, spanSubmit, spanAwait, spanHistory, spanClose} {
		fmt.Fprintf(out, "  %-24s %10.4f ms %6.2f%%\n", name, selfMS[name], selfMS[name]/wallMS*100)
	}
	verdictText := "within 5%"
	if residual > 0.05*wallMS || residual < -0.05*wallMS {
		verdictText = "OUTSIDE 5%: unattributed time is a finding"
	}
	fmt.Fprintf(out, "  %-24s %10.4f ms %6.2f%%  (sum %.4f ms, %s)\n", "residual", residual, residual/wallMS*100, attributed+residual, verdictText)

	layers, err := replayLayers(ctx, d, caps, replays, out)
	if err != nil {
		return nil, tc, err
	}
	add := func(name, unit string, v float64) { layers = append(layers, layerMetric{name, unit, v}) }
	add("core.budget_residual_ms", "ms", residual)
	add("core.trace_overhead_pct", "%", (wallMS/mean(plainMS)-1)*100)
	add("browser.browse_ms", "ms", selfMS[spanBrowse])
	add("htmlx.select_us", "us", selfMS[spanSelect]*1e3)
	add("coordinator.new_job_us", "us", selfMS[spanNewJob]*1e3)
	add("transport.dial_us", "us", selfMS[spanDial]*1e3)
	add("measurement.submit_us", "us", selfMS[spanSubmit]*1e3)
	add("measurement.await_ms", "ms", selfMS[spanAwait])
	add("history.record_us", "us", selfMS[spanHistory]*1e3)
	walPerCheck := 0.0
	if len(walKB) > 0 {
		walPerCheck = mean(walKB)
	}
	add("history.wal_kb_per_check", "KiB", walPerCheck)
	layers = append(layers, counterLayers(g, m)...)

	if firstWhy != "" {
		fmt.Fprintln(out, "first traced failure:", firstWhy)
	}
	if path, err := writeSpans(w.Name, opts.Seed, rec.spans); err != nil {
		fmt.Fprintln(out, "spans not written:", err)
	} else {
		fmt.Fprintf(out, "spans: %d written to %s\n", len(rec.spans), path)
	}
	sort.Slice(layers, func(a, b int) bool { return layers[a].Name < layers[b].Name })
	fmt.Fprintln(out, "per-layer metrics:")
	for _, l := range layers {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", l.Name, l.Value, l.Unit)
	}
	return layers, tc, nil
}

// writeSpans dumps the in-memory spans once the run is over.
func writeSpans(workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(scratchRoot, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	blob, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, blob, 0o644)
}
