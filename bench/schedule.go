package main

import (
	"math/rand"
	"sort"
	"time"
)

// checkOp is one scheduled price check.
type checkOp struct {
	// Due is when the check is to be sent, from the start of the phase.
	// Unscheduled plans (warm-up, the traced pass) leave it zero: a check
	// is due when its worker is free.
	Due    time.Duration
	Window int
	User   int // index into the deployment's users
	URL    int // index into the deployment's URL table
}

// plan is everything a phase will do, fixed before its clock starts: a pure
// function of the workload, the seed and the size.
type plan struct {
	Checks []checkOp
	// ViewPick[k] selects the earlier check that view k reads, as a
	// fraction of the checks eligible when the view is issued. View k is
	// issued with check (k+1)*ViewEveryChecks-1.
	ViewPick []float64
	// Span is the length of the schedule.
	Span time.Duration
	// Slice is the length of one estimator slice: the arrival period holds
	// SlicesPerPeriod whole slices, so that slices at the same place in
	// their periods were offered the same load.
	Slice           time.Duration
	SlicesPerPeriod int
}

// buildPlan draws n checks (n a multiple of windows) over nUsers users and
// nURLs URLs. A scheduled plan gets a Poisson process conditioned on its
// count: each phase of each period receives exactly its share of arrivals,
// placed uniformly inside it, so every seed offers the same load over the
// same span and only the arrangement differs.
func buildPlan(w *Workload, g *Grid, seed int64, n, nUsers, nURLs int, scheduled bool) plan {
	rng := rand.New(rand.NewSource(seed))
	p := plan{Checks: make([]checkOp, n), ViewPick: make([]float64, n/g.ViewEveryChecks)}
	perWindow := n / g.Windows

	if scheduled {
		period := time.Duration(float64(perWindow) / w.meanRate() * float64(time.Second))
		var periodSecs, periodArrivals float64
		for _, ph := range w.Phases {
			periodSecs += ph.Seconds
			periodArrivals += ph.Seconds * ph.RatePerS
		}
		i := 0
		for win := 0; win < g.Windows; win++ {
			at := time.Duration(win) * period
			left := perWindow
			for k, ph := range w.Phases {
				length := time.Duration(float64(period) * ph.Seconds / periodSecs)
				count := int(float64(perWindow)*ph.Seconds*ph.RatePerS/periodArrivals + 0.5)
				if k == len(w.Phases)-1 || count > left {
					count = left
				}
				left -= count
				dues := make([]time.Duration, count)
				for j := range dues {
					dues[j] = at + time.Duration(rng.Float64()*float64(length))
				}
				sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
				for _, d := range dues {
					p.Checks[i] = checkOp{Due: d, Window: win}
					i++
				}
				at += length
			}
		}
		p.Span = time.Duration(g.Windows) * period
		if p.SlicesPerPeriod = int((period + g.sliceLen()/2) / g.sliceLen()); p.SlicesPerPeriod < 1 {
			p.SlicesPerPeriod = 1
		}
		p.Slice = period / time.Duration(p.SlicesPerPeriod)
	} else {
		for i := range p.Checks {
			p.Checks[i].Window = i * g.Windows / n
		}
	}

	var zipf *rand.Zipf
	if w.URLMix == "zipf" {
		zipf = rand.NewZipf(rng, w.ZipfS, 1, uint64(nURLs-1))
	}
	for i := range p.Checks {
		p.Checks[i].User = rng.Intn(nUsers)
		if zipf != nil {
			p.Checks[i].URL = int(zipf.Uint64())
		} else {
			p.Checks[i].URL = rng.Intn(nURLs)
		}
	}
	for k := range p.ViewPick {
		p.ViewPick[k] = rng.Float64()
	}
	return p
}
