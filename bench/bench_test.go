package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"pricesheriff/internal/core"
	"pricesheriff/internal/measurement"
)

func testGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := loadGrid()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The arrival schedule and the URL/user/view draws depend on nothing but the
// seed, and a different seed rearranges them without changing the offered
// load.
func TestPlanIsPureFunctionOfSeed(t *testing.T) {
	g := testGrid(t)
	for _, w := range g.Workloads {
		n := w.measuredChecks(g, 4)
		a, b := buildPlan(w, g, 7, n, 24, 50, true), buildPlan(w, g, 7, n, 24, 50, true)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", w.Name)
		}
		c := buildPlan(w, g, 8, n, 24, 50, true)
		if reflect.DeepEqual(a.Checks, c.Checks) {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", w.Name)
		}
		if len(a.Checks) != n || len(a.ViewPick) != n/g.ViewEveryChecks || a.Span != c.Span {
			t.Errorf("%s: %d checks, %d views, span %v vs %v", w.Name, len(a.Checks), len(a.ViewPick), a.Span, c.Span)
		}
		perWindow := make([]int, g.Windows)
		var last time.Duration
		for _, op := range a.Checks {
			perWindow[op.Window]++
			if op.Due < last {
				t.Fatalf("%s: due times go backwards", w.Name)
			}
			last = op.Due
			if op.User < 0 || op.User >= 24 || op.URL < 0 || op.URL >= 50 {
				t.Fatalf("%s: draw out of range: %+v", w.Name, op)
			}
		}
		for win, k := range perWindow {
			if k != n/g.Windows {
				t.Errorf("%s: window %d holds %d checks, want %d", w.Name, win, k, n/g.Windows)
			}
		}
		if last >= a.Span || a.Span <= 0 {
			t.Errorf("%s: last arrival %v outside span %v", w.Name, last, a.Span)
		}
		if period := a.Span / time.Duration(g.Windows); a.Slice*time.Duration(a.SlicesPerPeriod) != period || a.Slice < g.sliceLen()*2/3 || a.Slice > g.sliceLen()*3/2 {
			t.Errorf("%s: %d slices of %v do not make the %v period", w.Name, a.SlicesPerPeriod, a.Slice, period)
		}
		// Warm-up and the traced pass take the same draws without a schedule.
		if u := buildPlan(w, g, 7, n, 24, 50, false); u.Span != 0 || u.Checks[n-1].Due != 0 || u.Checks[n-1].Window != g.Windows-1 {
			t.Errorf("%s: unscheduled plan has span %v, last op %+v", w.Name, u.Span, u.Checks[n-1])
		}
	}
}

// The spike shape puts its burst at the end of every period at the burst's
// rate.
func TestSpikeScheduleShape(t *testing.T) {
	g := testGrid(t)
	w, err := g.workload("dup_spike_open")
	if err != nil {
		t.Fatal(err)
	}
	n := w.measuredChecks(g, 6*g.Windows) // the reference shape: 6-s periods
	p := buildPlan(w, g, 1, n, 24, 20, true)
	period := p.Span / time.Duration(g.Windows)
	if period != 6*time.Second {
		t.Fatalf("period %v, want 6s", period)
	}
	low, high := 0, 0
	for _, op := range p.Checks {
		if op.Window != 0 {
			break
		}
		if op.Due < 4*time.Second {
			low++
		} else {
			high++
		}
	}
	if low != 320 || high != 400 {
		t.Errorf("first period: %d arrivals in the 4 s at 80/s and %d in the 2 s at 200/s, want 320 and 400", low, high)
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1..8], n=4) == [2.25, 4.5, 6.75]
	q1, q2, q3 := quartiles([]float64{8, 1, 7, 2, 6, 3, 5, 4})
	if q1 != 2.25 || q2 != 4.5 || q3 != 6.75 {
		t.Errorf("quartiles of 1..8 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	if q1, q2, q3 = quartiles([]float64{40, 10, 20}); q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("quartiles of 10,20,40 = %v %v %v", q1, q2, q3)
	}
	if m := median([]float64{5, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// Samples are filed under the slice they were due in, and a slice's class
// is its place in the arrival period.
func TestCutSlices(t *testing.T) {
	ms := time.Millisecond
	p := plan{Slice: 250 * ms, SlicesPerPeriod: 2, Span: time.Second}
	res := &phaseResult{
		Checks: []sample{
			{At: 10 * ms, Latency: 5 * ms},
			{At: 240 * ms, Latency: 20 * ms}, // due in slice 0, done in slice 1
			{At: 300 * ms, Latency: 4 * ms},
			{At: 990 * ms, Latency: 30 * ms},
		},
		Views: []sample{{At: 600 * ms, Latency: 2 * ms}},
	}
	got := cutSlices(p, res)
	want := []slice{
		{Class: 0, Check: []float64{5, 20}},
		{Class: 1, Check: []float64{4}},
		{Class: 0, View: []float64{2}},
		{Class: 1, Check: []float64{30}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("slices = %+v, want %+v", got, want)
	}
}

// The latency metrics are read over the quietest share of the slices of each
// class, so that disturbing the others does not move them.
func TestQuietSlices(t *testing.T) {
	still := func(class int, ms float64) slice {
		return slice{Class: class, Check: []float64{ms - 1, ms, ms + 1}, View: []float64{ms / 4}}
	}
	var slices []slice
	for i := 0; i < 8; i++ {
		slices = append(slices, still(0, 4), still(1, 8)) // class 1 is the burst: slower by design
	}
	check := func(what string) {
		t.Helper()
		q := quietSlices(slices, 0.25, 3)
		if q.Picked != 4 || q.Ranked != 16 {
			t.Fatalf("%s: picked %d of %d, want 4 of 16", what, q.Picked, q.Ranked)
		}
		// two slices of each class: check latencies {3,4,5}x2 and {7,8,9}x2, views {1,1,2,2}
		if q.CheckP50MS != 6 || q.ViewP50MS != 1.5 {
			t.Errorf("%s: %+v", what, q)
		}
	}
	check("still host")
	for i := 0; i < 12; i++ { // disturb six of the eight slices of each class
		slices[i] = slice{Class: slices[i].Class, Check: []float64{40, 50, 60}, View: []float64{20}}
	}
	check("disturbed host")
	if q := quietSlices(slices, 0.25, 3); q.Restless < 5 {
		t.Errorf("restless = %v on a run three quarters disturbed", q.Restless)
	}
	// A slice too thin to have a median worth ranking is left out.
	slices = append(slices, slice{Class: 0, Check: []float64{0.1}})
	check("thin slice")
	if q := quietSlices(nil, 0.25, 3); q.Picked != 0 {
		t.Errorf("picked %d slices of none", q.Picked)
	}
}

func goodResult() *core.CheckResult {
	rows := []measurement.ResultRow{{Source: "You", Kind: "initiator", Converted: 10}}
	for _, src := range []string{"ipc-00-ES", "ipc-01-US"} {
		rows = append(rows, measurement.ResultRow{Source: src, Kind: "ipc", Country: src[7:], Converted: 10})
	}
	rows = append(rows, measurement.ResultRow{Source: "peer ES", Kind: "ppc", Country: "ES", Converted: 10})
	return &core.CheckResult{JobID: "job-1", URL: "http://flat.com/product/a", Domain: "flat.com", Rows: rows}
}

func TestOracle(t *testing.T) {
	exp := expect{IPCs: 2, PPCs: 1, StrategyFree: func(d string) bool { return d == "flat.com" }}
	if v, why := judge(goodResult(), nil, exp); v != valid {
		t.Fatalf("good result judged %s: %s", v, why)
	}
	cases := []struct {
		name string
		want verdict
		edit func(r *core.CheckResult)
	}{
		{"error row", invalid, func(r *core.CheckResult) { r.Rows[1].Err = "status 451" }},
		{"missing IPC row", partial, func(r *core.CheckResult) { r.Rows = append(r.Rows[:1], r.Rows[2:]...) }},
		{"missing initiator row", invalid, func(r *core.CheckResult) { r.Rows = r.Rows[1:] }},
		{"zero price", invalid, func(r *core.CheckResult) { r.Rows[2].Converted = 0 }},
		{"spread on a strategy-free shop", invalid, func(r *core.CheckResult) { r.Rows[2].Converted = 10.2 }},
		{"duplicate IPC row", invalid, func(r *core.CheckResult) { r.Rows[2].Source = r.Rows[1].Source }},
	}
	for _, c := range cases {
		r := goodResult()
		c.edit(r)
		if v, _ := judge(r, nil, exp); v != c.want {
			t.Errorf("%s: judged %s, want %s", c.name, v, c.want)
		}
	}
	// The same spread is fine where the shop is allowed to discriminate, and
	// rounding-sized differences are fine everywhere.
	r := goodResult()
	r.Domain = "ab-test.com"
	r.Rows[2].Converted = 10.2
	if v, why := judge(r, nil, exp); v != valid {
		t.Errorf("spread on a shop with a strategy judged %s: %s", v, why)
	}
	r = goodResult()
	r.Rows[2].Converted = 10.05
	if v, why := judge(r, nil, exp); v != valid {
		t.Errorf("0.5%% rounding difference judged %s: %s", v, why)
	}
	if v, _ := judge(nil, context.DeadlineExceeded, exp); v != failed {
		t.Errorf("error without rows judged %s", v)
	}
}

// The unrolled check of the traced run must stay the same protocol as
// System.PriceCheckContext: same row set (kinds, countries, count), a valid
// result, and one span per call under one root.
func TestUnrolledMatchesPriceCheck(t *testing.T) {
	g := testGrid(t)
	w, err := g.workload("narrow_open")
	if err != nil {
		t.Fatal(err)
	}
	d, err := boot(w, g)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	ctx := context.Background()
	rec := &recorder{epoch: time.Now()}
	for i, url := range []string{d.urls[0], d.urls[len(d.urls)/2], d.urls[len(d.urls)-1]} {
		want, err := d.sys.PriceCheckContext(ctx, d.users[i], url)
		if err != nil {
			t.Fatal(err)
		}
		got, c, err := d.unrolledCheck(ctx, rec, i, d.users[i], url)
		if err != nil {
			t.Fatal(err)
		}
		if v, why := judge(got, nil, d.exp); v != valid {
			t.Errorf("unrolled check of %s judged %s: %s", url, v, why)
		}
		if rowShape(got.Rows) != rowShape(want.Rows) {
			t.Errorf("%s: unrolled rows %s, PriceCheckContext rows %s", url, rowShape(got.Rows), rowShape(want.Rows))
		}
		if got.Domain != want.Domain || got.Currency != want.Currency || c.HTML == "" || len(c.Path.Steps) == 0 {
			t.Errorf("%s: unrolled result %+v / capture %+v", url, got, c)
		}
		if pts := d.sys.History().Len(historyKey(url, g.ViewCountry)); pts < 2 {
			t.Errorf("%s: %d history points after two checks", url, pts)
		}
	}
	roots, leaves := 0, 0
	for _, s := range rec.spans {
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		if s.Parent == -1 {
			roots++
		} else if rec.spans[s.Parent].Check != s.Check || rec.spans[s.Parent].Parent != -1 {
			t.Errorf("span %+v hangs off %+v", s, rec.spans[s.Parent])
		} else {
			leaves++
		}
	}
	if roots != 3 || leaves != 3*8 {
		t.Errorf("%d roots and %d leaf spans for 3 checks, want 3 and 24", roots, leaves)
	}
}

// -quick completes on all four workloads, traced pass included, with every
// operation valid and every metric named in BENCHMARK.json present.
func TestQuickAllWorkloads(t *testing.T) {
	g := testGrid(t)
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name  string
			Unit  string
			Bound float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(g.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, workloads.json %d", len(contract.Workloads), len(g.Workloads))
	}
	for _, e := range contract.EndToEnd {
		if g.Bounds[e.Name] != e.Bound {
			t.Errorf("bound of %s: BENCHMARK.json %v, workloads.json %v", e.Name, e.Bound, g.Bounds[e.Name])
		}
	}
	for _, cw := range contract.Workloads {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(g, runOptions{Workload: cw.Name, Seed: 3, Seconds: 1, Trace: trace, Quick: true}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", cw.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < g.QuickChecks {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", cw.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, l := range contract.PerLayer {
					want[l.Name] = l.Unit
				}
			} else {
				for _, e := range contract.EndToEnd {
					want[e.Name] = e.Unit
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json names %d", cw.Name, trace, len(rep.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := rep.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", cw.Name, trace, name, m, ok, unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", cw.Name, name, m.Value)
				}
			}
		}
	}
}
