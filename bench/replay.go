package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"pricesheriff/internal/admit"
	"pricesheriff/internal/currency"
	"pricesheriff/internal/history"
	"pricesheriff/internal/htmlx"
	"pricesheriff/internal/measurement"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/peer"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/store"
	"pricesheriff/internal/transport"
)

// replayLayers times, one call at a time on an otherwise idle system, the
// layers a check runs in parallel behind its await, where spans around the
// submitter's calls cannot see them. Every replay calls an exported function
// on inputs the unrolled checks captured, n times.
func replayLayers(ctx context.Context, d *deployment, caps []*captured, n int, out io.Writer) ([]layerMetric, error) {
	sys := d.sys
	var layers []layerMetric
	var firstErr error
	fail := func(what string, err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("replay %s: %w", what, err)
		}
	}
	us := func(name string, iters int, f func(i int)) {
		layers = append(layers, layerMetric{name, "us", timeBatches(iters, f) / 1e3})
	}
	ns := func(name string, iters int, f func(i int)) {
		layers = append(layers, layerMetric{name, "ns", timeBatches(iters, f)})
	}
	at := func(i int) *captured { return caps[i%len(caps)] }

	// htmlx: a cold parse, and the cached parse+locate a repeated page gets.
	us("htmlx.parse_us", n, func(i int) { htmlx.Parse(at(i).HTML) })
	cache := htmlx.NewCache(0, 0)
	hot := caps
	if len(hot) > 64 { // well inside the cache's 256 documents
		hot = hot[:64]
	}
	for _, c := range hot {
		cache.Locate(c.Domain, c.Path, cache.Parse(c.Domain, c.HTML))
	}
	us("htmlx.cached_extract_us", n, func(i int) {
		c := hot[i%len(hot)]
		if _, err := cache.Locate(c.Domain, c.Path, cache.Parse(c.Domain, c.HTML)); err != nil {
			fail("cached extract", err)
		}
	})

	// shop: the page over the fabric and the same page rendered in place;
	// the difference is the envelope.
	u, _ := sys.User(d.users[0])
	fetchReq := func(i int) *shop.FetchRequest {
		return &shop.FetchRequest{URL: at(i).URL, IP: u.Browser.IP, UserAgent: u.Browser.UserAgent, Nonce: uint64(1)<<40 + uint64(i)}
	}
	netFetcher, err := shop.DialFetcher(sys.Fabric(), sys.ShopAddr(), 1)
	if err != nil {
		return nil, err
	}
	defer netFetcher.Close()
	us("shop.fetch_us", n, func(i int) {
		if resp, err := netFetcher.Fetch(ctx, fetchReq(i)); err != nil || resp.Status != 200 {
			fail("shop fetch", fmt.Errorf("status %v: %v", resp, err))
		}
	})
	local := shop.LocalFetcher{Mall: sys.Mall}
	us("shop.render_us", n, func(i int) {
		if resp, _ := local.Fetch(ctx, fetchReq(i)); resp.Status != 200 {
			fail("shop render", fmt.Errorf("status %d", resp.Status))
		}
	})

	// currency: detection plus conversion of the price texts the vantage
	// points actually returned.
	var texts []string
	for _, c := range caps {
		for _, r := range c.Rows {
			texts = append(texts, r.Original)
		}
	}
	us("currency.detect_us", n, func(i int) {
		det, err := currency.Detect(texts[i%len(texts)])
		if err != nil {
			fail("currency detect", err)
			return
		}
		sys.Mall.Rates.ConvertDetection(det, "EUR")
	})

	// peer: one page through the broker to a user's add-on and back.
	requester, err := peer.NewRequester(sys.Fabric(), sys.BrokerAddr(), "bench-replay", 10*time.Second)
	if err != nil {
		return nil, err
	}
	defer requester.Close()
	us("peer.request_page_us", n, func(i int) {
		resp, err := requester.RequestPage(ctx, d.users[i%len(d.users)], &peer.PageRequest{URL: at(i).URL})
		if err != nil || resp.Status != 200 {
			fail("peer request", fmt.Errorf("response %+v: %v", resp, err))
		}
	})

	// transport: an echo handler of our own on the system's fabric, so the
	// generic envelope is timed without any application work behind it.
	lis, err := sys.Fabric().Listen("")
	if err != nil {
		return nil, err
	}
	echo := transport.NewServer(lis)
	echo.Handle("bench.echo", func(raw json.RawMessage) (any, error) { return raw, nil })
	go echo.Serve()
	defer echo.Close()
	cli, err := transport.DialClient(sys.Fabric(), echo.Addr())
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	for _, e := range []struct {
		name    string
		payload string
	}{{"transport.echo_small_us", "ping"}, {"transport.echo_64k_us", strings.Repeat("x", 64<<10)}} {
		var back string
		us(e.name, n, func(int) {
			if err := cli.CallCtx(ctx, "bench.echo", e.payload, &back); err != nil || len(back) != len(e.payload) {
				fail(e.name, fmt.Errorf("echoed %d bytes: %v", len(back), err))
			}
		})
	}

	// shard and store: the response rows the pipeline stored for the
	// captured jobs, read back and written again under fresh job ids —
	// through the router, and straight into the engine behind shard 0.
	var jobRows [][]store.Row
	for _, c := range caps {
		rows, err := sys.DB().SelectCtx(ctx, store.Query{Table: measurement.ResponsesTable.Name, Eq: map[string]any{"job_id": c.JobID}})
		if err != nil || len(rows) == 0 {
			return nil, fmt.Errorf("replay: stored rows of %s: %d, %v", c.JobID, len(rows), err)
		}
		for _, r := range rows {
			delete(r, store.ID)
		}
		jobRows = append(jobRows, rows)
	}
	// The engine and the wire both copy a row on the way in, so the captured
	// rows are restamped in place instead of cloned inside the timed call.
	restamp := func(rows []store.Row, tag string, i int) []store.Row {
		id := fmt.Sprintf("replay-%s-%06d", tag, i)
		for _, r := range rows {
			r["job_id"] = id
		}
		return rows
	}
	table := measurement.ResponsesTable.Name
	us("shard.insert_us", n, func(i int) {
		_, err := sys.DB().InsertCtx(ctx, table, restamp(jobRows[i%len(jobRows)][:1], "one", i)[0])
		fail("shard insert", err)
	})
	us("shard.insert_batch_us", n, func(i int) {
		_, err := sys.DB().InsertBatchCtx(ctx, table, restamp(jobRows[i%len(jobRows)], "batch", i))
		fail("shard insert batch", err)
	})
	us("shard.select_us", n, func(i int) {
		rows, err := sys.DB().SelectCtx(ctx, store.Query{Table: table, Eq: map[string]any{"job_id": at(i).JobID}})
		if err == nil && len(rows) == 0 {
			err = fmt.Errorf("no rows for %s", at(i).JobID)
		}
		fail("shard select", err)
	})
	us("store.insert_us", n, func(i int) {
		_, err := sys.StoreEngine().Insert(table, restamp(jobRows[i%len(jobRows)][:1], "engine", i)[0])
		fail("store insert", err)
	})

	// history: the read a view makes.
	us("history.range_us", n, func(i int) {
		pts := sys.History().Range(historyKey(at(i).URL, d.g.ViewCountry), time.Time{}, time.Time{})
		if len(history.Downsample(pts, 60)) == 0 {
			fail("history range", fmt.Errorf("no points for %s", at(i).URL))
		}
	})

	// obs and admit: the per-touch costs every check pays many times over.
	reg := obs.NewRegistry()
	ns("obs.counter_touch_ns", 10*n, func(int) { reg.Counter("bench_touch_total", "layer", "obs").Inc() })
	tracer := obs.NewTracer(0)
	ns("obs.span_ns", 10*n, func(int) {
		tr, _ := tracer.Start("", "bench")
		tr.Span("step").End()
		tr.Finish()
	})
	gate := admit.New(admit.Config{Limit: 64}, nil)
	ns("admit.acquire_ns", 10*n, func(int) {
		release, err := gate.Acquire(ctx)
		if err != nil {
			fail("admit acquire", err)
			return
		}
		release()
	})

	if firstErr != nil {
		fmt.Fprintln(out, "replay failure:", firstErr)
	}
	return layers, firstErr
}
