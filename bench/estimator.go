package main

import (
	"math"
	"sort"
)

// quantileSorted reads quantile q of sorted values by linear interpolation
// between the two nearest ranks.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func median(values []float64) float64 { return quantileSorted(sortedCopy(values), 0.5) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// quartiles are the three cut points of Python's
// statistics.quantiles(values, n=4) (the exclusive method), the estimator the
// benchmark's driver applies to repeated runs.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(k int) float64 {
		j := k * (n + 1) / 4 // whole part of the 1-based rank
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - 4*float64(j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// slice is one short stretch of the measured phase.
type slice struct {
	Class int       // place within the arrival period; one class, one offered load
	Check []float64 // latencies, in ms, of the checks due in it
	View  []float64 // and of the views
}

// cutSlices files a phase's samples under the slice they were due in.
func cutSlices(p plan, res *phaseResult) []slice {
	out := make([]slice, int(p.Span/p.Slice))
	for k := range out {
		out[k].Class = k % p.SlicesPerPeriod
	}
	for _, s := range res.Checks {
		if k := int(s.At / p.Slice); k < len(out) {
			out[k].Check = append(out[k].Check, float64(s.Latency)/1e6)
		}
	}
	for _, s := range res.Views {
		if k := int(s.At / p.Slice); k < len(out) {
			out[k].View = append(out[k].View, float64(s.Latency)/1e6)
		}
	}
	return out
}

// quiet is what the latency metrics are read from: the quietest share of a
// phase's slices, pooled.
type quiet struct {
	CheckP50MS, ViewP50MS float64
	Picked, Ranked        int // slices pooled, slices that could have been
	// Restless is the median over all ranked slices of their median check
	// latency, over CheckP50MS: about 1.05 on a still host, 1.2 and more
	// when most of the run was disturbed.
	Restless float64
}

// quietSlices is the estimator of the latency metrics. What a shared host
// does to a process comes in stretches of a quarter of a second to minutes
// and only ever slows it, so a run is a mixture of still and disturbed
// stretches in proportions nobody controls, and a median over the whole run
// follows the proportions. The still stretches describe the code. Within
// each class (slices offered the same load), the slices holding at least
// minChecks checks are ranked by their median check latency and the quietest
// share is kept; each latency metric is the median of the kept slices'
// samples pooled. The garbage collector's mark phases are disturbed stretches
// too and are mostly left out with the rest: what allocation costs is read
// from the allocation metrics, which repeat to a fraction of a percent.
func quietSlices(slices []slice, share float64, minChecks int) quiet {
	type ranked struct {
		idx int
		med float64
	}
	byClass := map[int][]ranked{}
	var allMedians []float64
	for i, s := range slices {
		if len(s.Check) >= minChecks {
			m := median(s.Check)
			byClass[s.Class] = append(byClass[s.Class], ranked{i, m})
			allMedians = append(allMedians, m)
		}
	}
	var q quiet
	var checks, views []float64
	for _, rs := range byClass {
		sort.Slice(rs, func(a, b int) bool { return rs[a].med < rs[b].med })
		keep := int(math.Ceil(share * float64(len(rs))))
		for _, r := range rs[:keep] {
			checks = append(checks, slices[r.idx].Check...)
			views = append(views, slices[r.idx].View...)
		}
		q.Picked += keep
		q.Ranked += len(rs)
	}
	q.CheckP50MS, q.ViewP50MS = median(checks), median(views)
	q.Restless = median(allMedians) / q.CheckP50MS
	return q
}

func windowMedians(byWindow [][]float64) []float64 {
	out := make([]float64, len(byWindow))
	for i, w := range byWindow {
		out[i] = median(w)
	}
	return out
}
