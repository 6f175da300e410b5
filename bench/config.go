package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"time"
)

// workloads.json is the whole experiment grid. Nothing about the load is
// tunable from the command line: a number that moves between two runs is a
// number that cannot be compared, so the grid is data checked in beside the
// code that reads it.
//
//go:embed workloads.json
var gridJSON []byte

// Grid is the parsed workloads.json.
type Grid struct {
	SystemSeed     int64   `json:"system_seed"`
	LatencyLimitMS float64 `json:"latency_limit_ms"`
	LateDispatchMS float64 `json:"late_dispatch_ms"`
	Windows        int     `json:"windows"`
	// SliceMS, QuietShare and MinSliceChecks define the estimator of the
	// latency metrics: the measured phase is cut into slices this long, the
	// slices holding at least MinSliceChecks checks are ranked by their
	// median check latency, and the latencies are read over the quietest
	// QuietShare of them (estimator.go).
	SliceMS         int                `json:"slice_ms"`
	QuietShare      float64            `json:"quiet_share"`
	MinSliceChecks  int                `json:"min_slice_checks"`
	ViewEveryChecks int                `json:"view_every_checks"`
	ViewLagChecks   int                `json:"view_lag_checks"`
	ViewCountry     string             `json:"view_country"`
	ColdBoots       int                `json:"cold_boots"`
	Users           int                `json:"users"`
	UserCountries   []string           `json:"user_countries"`
	WarmupInFlight  int                `json:"warmup_in_flight"`
	QuickChecks     int                `json:"quick_checks"`
	QuickWarmup     int                `json:"quick_warmup_checks"`
	ReplayIters     int                `json:"replay_iterations"`
	Bounds          map[string]float64 `json:"bounds"`
	Workloads       []*Workload        `json:"workloads"`
}

// Phase is one constant-rate stretch of an open-loop arrival period.
type Phase struct {
	Seconds  float64 `json:"seconds"`
	RatePerS float64 `json:"rate_per_s"`
}

// Workload is one row of the grid: a topology plus a traffic shape.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	Fabric             string   `json:"fabric"` // inproc | tcp
	IPCCountries       []string `json:"ipc_countries"`
	MaxPPCs            int      `json:"max_ppcs"`
	MeasurementServers int      `json:"measurement_servers"`
	StoreEngine        string   `json:"store_engine"`
	PageCacheMB        int      `json:"page_cache_mb"`
	// WALSegmentKB sizes WAL segments. The system checkpoints, and with it
	// flushes the LSM, every eight segments; the shipped 4 MiB segments
	// would put the first flush beyond the end of a run.
	WALSegmentKB int `json:"wal_segment_kb"`
	StoreShards  int `json:"store_shards"`

	// Phases describe one arrival period of the open loop; the period is
	// scaled so that one period is one window of the schedule.
	Phases []Phase `json:"phases"`

	URLMix       string   `json:"url_mix"` // uniform | zipf
	ZipfS        float64  `json:"zipf_s"`
	ZipfProducts int      `json:"zipf_products"`
	ZipfDomains  []string `json:"zipf_domains"`

	WarmupChecks    int `json:"warmup_checks"`
	PreloadJobs     int `json:"preload_jobs"`
	PreloadRowBytes int `json:"preload_row_bytes"`
	TraceChecks     int `json:"trace_checks"`
}

// loadGrid parses and sanity-checks the embedded grid.
func loadGrid() (*Grid, error) {
	dec := json.NewDecoder(bytes.NewReader(gridJSON))
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	if g.SliceMS < 50 || g.QuietShare <= 0 || g.QuietShare > 1 || g.MinSliceChecks < 1 {
		return nil, fmt.Errorf("workloads.json: slice_ms>=50, 0<quiet_share<=1 and min_slice_checks>=1 are required")
	}
	if g.Windows < 8 || g.ViewEveryChecks < 1 || g.ColdBoots < 1 || g.Users < 2 || len(g.UserCountries) == 0 {
		return nil, fmt.Errorf("workloads.json: windows>=8, view_every_checks>=1, cold_boots>=1, users>=2 and user_countries are required")
	}
	seen := map[string]bool{}
	for _, w := range g.Workloads {
		if seen[w.Name] {
			return nil, fmt.Errorf("workloads.json: workload %q listed twice", w.Name)
		}
		seen[w.Name] = true
		if w.meanRate() <= 0 {
			return nil, fmt.Errorf("workloads.json: %s: phases with a positive rate are required", w.Name)
		}
		if w.PreloadJobs < 1 || w.WarmupChecks < 1 || w.TraceChecks < 1 {
			return nil, fmt.Errorf("workloads.json: %s: preload_jobs, warmup_checks and trace_checks must be positive", w.Name)
		}
	}
	return &g, nil
}

func (g *Grid) sliceLen() time.Duration { return time.Duration(g.SliceMS) * time.Millisecond }

// workload finds a grid row by name.
func (g *Grid) workload(name string) (*Workload, error) {
	for _, w := range g.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// meanRate is the arrivals per second averaged over one period.
func (w *Workload) meanRate() float64 {
	var n, secs float64
	for _, p := range w.Phases {
		n += p.Seconds * p.RatePerS
		secs += p.Seconds
	}
	if secs == 0 {
		return 0
	}
	return n / secs
}

// measuredChecks is the fixed size of the measured phase: the offered rate
// times the run length, rounded down to whole windows. Count and schedule
// are fixed, so every build is offered the same work at the same moments and
// carries the same accumulated state when it is read.
func (w *Workload) measuredChecks(g *Grid, seconds int) int {
	n := int(w.meanRate() * float64(seconds))
	n -= n % g.Windows
	if n < g.Windows {
		n = g.Windows
	}
	return n
}
