package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"pricesheriff/internal/htmlx"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/shop"
)

// processStart is read as early as the runtime allows: setup_s counts from
// here for the first cold boot.
var processStart = time.Now()

// runOptions is one invocation: one workload, one seed.
type runOptions struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Quick    bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the gated metrics in print order with their units.
var endToEnd = []struct{ Name, Unit string }{
	{"checks_per_s", "ops/s"},
	{"check_p50_ms", "ms"},
	{"allocs_per_check", "count"},
	{"kb_alloc_per_check", "KiB"},
	{"retained_kb_per_check", "KiB"},
	{"setup_s", "s"},
}

// measured is everything the untraced phase produced, kept for the traced
// run's per-layer ratios.
type measured struct {
	res           *phaseResult
	validChecks   int
	views         int
	cpuMSPerCheck float64 // process CPU over the whole phase per valid check
	viewP50MS     float64 // median view latency over the quiet slices
	before        obs.Snapshot
	after         obs.Snapshot
}

// settle brings the system to a state whose heap can be compared with the
// same state later: asynchronous tails of finished checks (job-done reports,
// heartbeats in flight) drain; a durable system checkpoints, because what its
// memtables hold is a sawtooth of up to a tenth of the retained memory and a
// run would otherwise be read wherever in a tooth it happened to end; then
// two collections, so that finalizers and the objects they release are both
// gone.
func (d *deployment) settle() error {
	time.Sleep(200 * time.Millisecond)
	if p := d.sys.Persister(); p != nil {
		if err := p.Compact(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	runtime.GC()
	runtime.GC()
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// idleParseMicros times htmlx.Parse of one fixed product page on an idle
// process. The same number before and after a run says the host did not
// drift under it; a different number says the run's timings are suspect
// before anyone compares them.
func idleParseMicros() float64 {
	mall := shop.NewMall(shop.MallConfig{Seed: 1, NumDomains: 30, NumLocationPD: 10, NumAlexa: 2})
	s, _ := mall.Shop("chegg.com")
	resp, err := shop.LocalFetcher{Mall: mall}.Fetch(context.Background(), &shop.FetchRequest{
		URL: s.ProductURL(s.Products()[0].SKU), IP: "10.0.0.1", Nonce: 1,
	})
	if err != nil || resp.Status != 200 {
		return 0
	}
	parse := func(int) { htmlx.Parse(resp.HTML) }
	timeBatches(500, parse) // caches and branch predictors first
	return timeBatches(2000, parse) / 1e3
}

// timeBatches runs f n times in five batches and returns the median batch's
// mean nanoseconds per call: a mean inside a batch because single calls are
// below the clock's useful resolution, a median across batches because a
// preempted batch should not move the number.
func timeBatches(n int, f func(i int)) float64 {
	const batches = 5
	per := (n + batches - 1) / batches
	means := make([]float64, batches)
	i := 0
	for b := range means {
		t0 := time.Now()
		for k := 0; k < per; k++ {
			f(i)
			i++
		}
		means[b] = float64(time.Since(t0).Nanoseconds()) / float64(per)
	}
	return median(means)
}

// runWorkload performs one whole invocation and writes the human-readable
// record to out. The returned report is what main prints last.
func runWorkload(g *Grid, opts runOptions, out io.Writer) (*report, error) {
	w, err := g.workload(opts.Workload)
	if err != nil {
		return nil, err
	}
	preamble := time.Since(processStart)
	parseBefore := idleParseMicros()

	nChecks, nWarm, boots := w.measuredChecks(g, opts.Seconds), w.WarmupChecks, g.ColdBoots
	if opts.Trace {
		// The traced pass needs the measured phase for its counts only, and
		// a run has one time budget: half the schedule is plenty.
		nChecks = w.measuredChecks(g, (opts.Seconds+1)/2)
	}
	if opts.Quick {
		nChecks, nWarm, boots = g.QuickChecks-g.QuickChecks%g.Windows, g.QuickWarmup, 1
	}

	// Cold boots: each is timed whole, all but the last are torn down, and
	// the last one serves the run.
	var d *deployment
	setups := make([]float64, boots)
	for b := range setups {
		t0 := time.Now()
		if d, err = boot(w, g); err != nil {
			return nil, err
		}
		setups[b] = time.Since(t0).Seconds()
		if b == 0 {
			setups[b] += preamble.Seconds()
		}
		if b < boots-1 {
			d.close()
			runtime.GC()
		}
	}
	defer func() { d.close() }()

	warmPlan := buildPlan(w, g, opts.Seed^0x5eed, nWarm, len(d.users), len(d.urls), false)
	plan := buildPlan(w, g, opts.Seed, nChecks, len(d.users), len(d.urls), true)
	r := newRunner(d, nWarm+nChecks)
	warmRes, res := newPhaseResult(warmPlan), newPhaseResult(plan)

	r.run(warmPlan, warmRes, g.WarmupInFlight)

	if err := d.settle(); err != nil {
		return nil, err
	}
	m := &measured{res: res, views: len(plan.ViewPick)}
	m.before = d.sys.Metrics().Snapshot()
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()

	r.run(plan, res, 0)

	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	m.after = d.sys.Metrics().Snapshot()
	if err := d.settle(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms2)

	// Counts. A failed, partial, shed or invalid check misses the latency
	// limit by definition.
	limit := time.Duration(g.LatencyLimitMS * float64(time.Millisecond))
	counts := map[verdict]int{}
	good, overLimit, late := 0, 0, 0
	checkMS := make([][]float64, g.Windows)
	for i, s := range res.Checks {
		counts[s.Verdict]++
		if s.Late {
			late++
		}
		if s.Verdict == valid && s.Latency <= limit {
			good++
		} else if s.Verdict == valid {
			overLimit++
		}
		win := plan.Checks[i].Window
		checkMS[win] = append(checkMS[win], float64(s.Latency)/1e6)
	}
	viewFailed := 0
	for _, s := range res.Views {
		if s.Verdict != valid {
			viewFailed++
		}
	}
	m.validChecks = counts[valid]
	if m.validChecks == 0 {
		return nil, fmt.Errorf("%s: no valid check in the measured phase: %s", w.Name, res.firstWhy)
	}
	vc := float64(m.validChecks)
	slices := cutSlices(plan, res)
	q := quietSlices(slices, g.QuietShare, g.MinSliceChecks)
	if q.Picked == 0 {
		return nil, fmt.Errorf("%s: no slice of the measured phase holds %d checks", w.Name, g.MinSliceChecks)
	}
	m.cpuMSPerCheck, m.viewP50MS = float64(cpu1-cpu0)/1e6/vc, q.ViewP50MS

	rep := &report{
		Attempted: len(warmRes.Checks) + len(warmRes.Views) + len(res.Checks) + len(res.Views),
		Failed:    warmRes.failures + res.failures,
		Metrics:   map[string]metric{},
	}
	e2e := map[string]float64{
		"checks_per_s":          float64(good) / res.Wall.Seconds(),
		"check_p50_ms":          q.CheckP50MS,
		"allocs_per_check":      float64(ms1.Mallocs-ms0.Mallocs) / vc,
		"kb_alloc_per_check":    float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / vc,
		"retained_kb_per_check": (float64(ms2.HeapAlloc) - float64(ms0.HeapAlloc)) / 1024 / vc,
		"setup_s":               median(setups),
	}

	fmt.Fprintf(out, "workload %s seed %d: %d checks + %d views on a %v schedule of %d windows after %d warm-up checks, measured %.2fs\n",
		w.Name, opts.Seed, len(res.Checks), len(res.Views), plan.Span, g.Windows, nWarm, res.Wall.Seconds())
	fmt.Fprintf(out, "counts: attempted=%d valid=%d failed=%d partial=%d shed=%d invalid=%d over_limit=%d views_failed=%d warmup_failed=%d late_share=%.4f\n",
		len(res.Checks)+len(res.Views), counts[valid], counts[failed], counts[partial], counts[shed], counts[invalid],
		overLimit, viewFailed, warmRes.failures, float64(late)/float64(len(res.Checks)))
	for _, why := range []string{warmRes.firstWhy, res.firstWhy} {
		if why != "" {
			fmt.Fprintln(out, "first failure:", why)
		}
	}
	fmt.Fprintf(out, "setup: cold boots %.4f s\n", setups)
	fmt.Fprintf(out, "window medians of check latency: %.3f ms\n", windowMedians(checkMS))
	fmt.Fprintf(out, "slices: %d of %v, latencies are read from the quietest %d of %d ranked; restless %.3f (median slice over quiet latency); slice medians in 0.1 ms:",
		len(slices), plan.Slice, q.Picked, q.Ranked, q.Restless)
	for _, s := range slices {
		fmt.Fprintf(out, " %.0f", median(s.Check)*10)
	}
	fmt.Fprintln(out)
	for _, e := range endToEnd {
		fmt.Fprintf(out, "  %-24s %14.4f %s\n", e.Name, e2e[e.Name], e.Unit)
	}
	fmt.Fprintf(out, "not gated (they follow the host's CPU speed): core.cpu_ms_per_check %.4f ms, core.view_p50_ms %.4f ms\n", m.cpuMSPerCheck, m.viewP50MS)

	// The measured system is torn down before anything else runs: the traced
	// run works on a fresh one, so the two never share a heap or a disk, and
	// the closing host probe wants an idle process.
	d.close()
	runtime.GC()
	if opts.Trace {
		layers, traced, err := traceWorkload(g, w, opts, m, out)
		if err != nil {
			return nil, err
		}
		rep.Attempted += traced.attempted
		rep.Failed += traced.failed
		for _, l := range layers {
			rep.Metrics[l.Name] = metric{Value: l.Value, Unit: l.Unit}
		}
	} else {
		for _, e := range endToEnd {
			rep.Metrics[e.Name] = metric{Value: e2e[e.Name], Unit: e.Unit}
		}
	}
	rep.Correct = rep.Failed == 0

	fsync := "n/a (no data dir)"
	if w.StoreEngine == "disk" {
		fsync = "interval (shipped default)"
	}
	fmt.Fprintf(out, "host: GOMAXPROCS=%d nproc=%d go=%s fsync=%s heap_end_mb=%.1f htmlx.parse_us idle before=%.2f after=%.2f\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), fsync,
		float64(ms2.HeapAlloc)/(1<<20), parseBefore, idleParseMicros())
	return rep, nil
}
