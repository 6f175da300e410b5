package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"pricesheriff/internal/core"
	"pricesheriff/internal/history"
	"pricesheriff/internal/measurement"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/store"
	"pricesheriff/internal/transport"
)

// viewTarget is an earlier check a returning user can look at again.
type viewTarget struct {
	JobID string
	URL   string
	Rows  int // response rows the store holds for the job
}

// deployment is one booted core.System plus what the load generator needs
// to know about it.
type deployment struct {
	sys     *core.System
	w       *Workload
	g       *Grid
	users   []string
	urls    []string
	exp     expect
	preload []viewTarget
	dataDir string // removed by close; empty for RAM-only topologies
}

// scratchRoot holds everything the benchmark writes: inside the directory
// it is run from, never beside it.
const scratchRoot = ".bench_build"

// boot brings a workload's topology up cold: system, users, preload, and one
// valid check. Everything boot does is inside setup_s.
func boot(w *Workload, g *Grid) (d *deployment, err error) {
	d = &deployment{w: w, g: g}
	defer func() {
		if err != nil {
			d.close()
			d, err = nil, fmt.Errorf("boot %s: %w", w.Name, err)
		}
	}()
	cfg := core.Config{
		IPCCountries:       w.IPCCountries,
		MaxPPCs:            w.MaxPPCs,
		MeasurementServers: w.MeasurementServers,
		PPCTimeout:         10 * time.Second,
		Seed:               g.SystemSeed,
		StoreEngine:        w.StoreEngine,
		PageCacheMB:        w.PageCacheMB,
		StoreShards:        w.StoreShards,
	}
	if w.Fabric == "tcp" {
		cfg.Fabric = transport.TCP{}
	}
	if w.StoreEngine == "disk" {
		if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(scratchRoot, "data-")
		if err != nil {
			return nil, err
		}
		d.dataDir = dir
		cfg.DataDir = dir // Fsync stays the shipped default: interval
		cfg.WALSegmentBytes = int64(w.WALSegmentKB) << 10
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	d.sys = sys

	for i := 0; i < g.Users; i++ {
		id := fmt.Sprintf("u-%02d", i)
		if _, err := sys.AddUser(id, g.UserCountries[i%len(g.UserCountries)], ""); err != nil {
			return nil, fmt.Errorf("add user: %w", err)
		}
		d.users = append(d.users, id)
	}
	if err := d.buildURLs(); err != nil {
		return nil, err
	}
	ipcs := len(w.IPCCountries)
	if ipcs == 0 {
		ipcs = len(measurement.DefaultIPCCountries)
	}
	ppcs := g.Users/len(g.UserCountries) - 1 // peers in the initiator's country
	if ppcs > w.MaxPPCs {
		ppcs = w.MaxPPCs
	}
	d.exp = expect{IPCs: ipcs, PPCs: ppcs, StrategyFree: func(domain string) bool {
		s, ok := sys.Mall.Shop(domain)
		return ok && s.Strategy == nil
	}}

	if err := d.preloadHistory(); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	res, err := sys.PriceCheckContext(context.Background(), d.users[0], d.urls[0])
	if v, why := judge(res, err, d.exp); v != valid {
		return nil, fmt.Errorf("first check %s: %s", v, why)
	}
	return d, nil
}

// buildURLs fixes the URL table the plans index: every product of every
// domain in mall order, or the hot set of a duplicate-heavy mix with the
// domains interleaved so that the top Zipf ranks span all of them.
func (d *deployment) buildURLs() error {
	mall := d.sys.Mall
	if d.w.URLMix != "zipf" {
		for _, domain := range mall.Domains() {
			s, _ := mall.Shop(domain)
			for _, p := range s.Products() {
				d.urls = append(d.urls, s.ProductURL(p.SKU))
			}
		}
		return nil
	}
	for rank := 0; len(d.urls) < d.w.ZipfProducts; rank++ {
		added := false
		for _, domain := range d.w.ZipfDomains {
			s, ok := mall.Shop(domain)
			if !ok {
				return fmt.Errorf("zipf domain %q is not in the mall", domain)
			}
			if ps := s.Products(); rank < len(ps) && len(d.urls) < d.w.ZipfProducts {
				d.urls = append(d.urls, s.ProductURL(ps[rank].SKU))
				added = true
			}
		}
		if !added {
			return fmt.Errorf("zipf domains hold fewer than %d products", d.w.ZipfProducts)
		}
	}
	return nil
}

// preloadHistory writes the record of checks made before this run: response
// rows through the shard router and price points through the engine and the
// index, the same doors the pipeline uses. It gives views something older
// than the run to read, and on the disk topology it is sized past the page
// cache so that reading it back is cold.
func (d *deployment) preloadHistory() error {
	ctx := context.Background()
	filler := strings.Repeat("x", d.w.PreloadRowBytes)
	now := time.Now().Add(-24 * time.Hour)
	for j := 0; j < d.w.PreloadJobs; j++ {
		url := d.urls[j%len(d.urls)]
		domain, _, _ := shop.ParseProductURL(url)
		jobID := fmt.Sprintf("preload-%06d", j)
		rows := make([]store.Row, d.exp.IPCs)
		for i := range rows {
			rows[i] = store.Row{
				"job_id": jobID, "request_id": float64(0), "domain": domain,
				"source": fmt.Sprintf("ipc-%02d", i), "kind": "ipc", "peer_id": fmt.Sprintf("ipc-%02d", i),
				"country": d.g.ViewCountry, "city": "", "original": "EUR 10.00", "currency": "EUR",
				"amount": 10.0, "converted": 10.0, "confidence": "high", "mode": "", "err": "",
				"html_diff": filler,
			}
		}
		if _, err := d.sys.DB().InsertBatchCtx(ctx, measurement.ResponsesTable.Name, rows); err != nil {
			return err
		}
		key := historyKey(url, d.g.ViewCountry)
		pt := history.Point{T: now.Add(time.Duration(j) * time.Second).UTC().Truncate(time.Millisecond), Price: 10}
		if _, err := d.sys.StoreEngine().Insert(history.PointsTable.Name, history.PointRow(key, pt)); err != nil {
			return err
		}
		d.sys.History().Append(key, pt)
		d.preload = append(d.preload, viewTarget{JobID: jobID, URL: url, Rows: len(rows)})
	}
	if p := d.sys.Persister(); p != nil {
		// Checkpoint, as a deployment with this history would have long
		// ago: the preloaded rows leave the memtable for run files, so a
		// view of them goes through the page cache to the disk.
		return p.Compact()
	}
	return nil
}

func historyKey(url, country string) history.SeriesKey {
	return history.SeriesKey{URL: url, Country: country}
}

// close shuts the system down and removes what it wrote.
func (d *deployment) close() {
	if d.sys != nil {
		d.sys.Close()
		d.sys = nil
	}
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
		d.dataDir = ""
	}
}
