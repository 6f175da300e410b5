// Package experiments regenerates every table and figure of the paper's
// evaluation as formatted text. cmd/benchtab drives it; EXPERIMENTS.md
// records its output against the paper's numbers. Each experiment has two
// scales: Quick (seconds, the default) and Full (the paper's sweep sizes,
// minutes).
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"pricesheriff/internal/analysis"
	"pricesheriff/internal/cluster"
	"pricesheriff/internal/core"
	"pricesheriff/internal/perf"
	"pricesheriff/internal/privkmeans"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/workload"
)

// Config selects scale and seed for a run.
type Config struct {
	Full bool  // paper-scale sweeps (slow) instead of quick ones
	Seed int64 // world and workload seed
}

// Runner caches the world and datasets across experiments.
type Runner struct {
	cfg  Config
	mall *shop.Mall
	live []analysis.Obs
}

// NewRunner builds a runner.
func NewRunner(cfg Config) *Runner {
	return &Runner{cfg: cfg}
}

// Mall lazily builds the world.
func (r *Runner) Mall() *shop.Mall {
	if r.mall == nil {
		if r.cfg.Full {
			r.mall = shop.NewMall(shop.MallConfig{Seed: r.cfg.Seed})
		} else {
			r.mall = shop.NewMall(shop.MallConfig{
				Seed: r.cfg.Seed, NumDomains: 300, NumLocationPD: 60, NumAlexa: 60,
			})
		}
	}
	return r.mall
}

// liveDataset lazily crawls the live-deployment-like observation set.
func (r *Runner) liveDataset() ([]analysis.Obs, error) {
	if r.live != nil {
		return r.live, nil
	}
	m := r.Mall()
	points, err := analysis.StandardIPCFleet(m.World, r.cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	ppcs, err := analysis.CountryPPCs(m.World, r.cfg.Seed+2, "ES", 3)
	if err != nil {
		return nil, err
	}
	c := analysis.NewCrawler(m, append(points, ppcs...))
	head, reps, tail := 30, 3, 60
	if r.cfg.Full {
		head, reps, tail = 76, 5, 400
	}
	var specs []analysis.SweepSpec
	for i, d := range m.LocationPDDomains {
		rr := 1
		if i < head {
			rr = reps
		}
		specs = append(specs, analysis.SweepSpec{Domain: d, Products: 4, Reps: rr, DayStep: 1})
	}
	count := 0
	for _, d := range m.Domains() {
		if s, _ := m.Shop(d); s != nil && s.Strategy == nil {
			specs = append(specs, analysis.SweepSpec{Domain: d, Products: 1, Reps: 1})
			if count++; count >= tail {
				break
			}
		}
	}
	obs, err := c.Sweep(specs)
	if err != nil {
		return nil, err
	}
	r.live = obs
	return obs, nil
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner, w io.Writer) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: system performance analysis", Table1},
		{"table2", "Table 2: top-10 countries by requests", Table2},
		{"table3", "Table 3: extreme price differences", Table3},
		{"table4", "Table 4: most expensive / cheapest countries", Table4},
		{"table5", "Table 5: % requests with within-country difference", Table5},
		{"fig2", "Fig 2: price-check result page", Fig2},
		{"fig5", "Fig 5: add-on adoption timeline", Fig5},
		{"fig8a", "Fig 8a: silhouette vs profile basis", Fig8a},
		{"fig8b", "Fig 8b: silhouette vs k", Fig8b},
		{"fig8c", "Fig 8c: private k-means execution time", Fig8c},
		{"fig9", "Fig 9: live-dataset price differences", Fig9},
		{"fig10", "Fig 10: price ratio vs price tier", Fig10},
		{"fig11", "Fig 11: systematic crawl within Spain", Fig11},
		{"fig12", "Fig 12: within-country scatter per country", Fig12},
		{"fig13", "Fig 13: per-peer bias", Fig13},
		{"fig14", "Fig 14: jcpenney 20-day temporal trends", Fig14},
		{"fig15", "Fig 15: chegg 20-day temporal trends", Fig15},
		{"sect75", "Sect 7.5: A/B-testing-vs-PDI-PD battery", Sect75},
		{"sect76", "Sect 7.6: Alexa top-400 sweep", Sect76},
	}
}

// Table1 regenerates the performance table.
func Table1(r *Runner, w io.Writer) error {
	model := perf.DefaultModel()
	fmt.Fprintf(w, "%-11s %8s %9s %8s %15s %12s\n",
		"version", "clients", "servers", "tasks", "resp (min/task)", "daily req")
	for _, sc := range perf.Table1Scenarios() {
		fmt.Fprintln(w, perf.FormatRow(perf.Simulate(sc, model, r.cfg.Seed)))
	}
	return nil
}

// Table2 regenerates the country ranking.
func Table2(r *Runner, w io.Writer) error {
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	users := workload.Users(rng, 1265, r.Mall().World.Countries(), 459.0/1265)
	reqs := workload.Requests(rng, users, r.Mall().Domains(), 5700, 396)
	counts := workload.CountryRequestCounts(users, reqs)
	for i, c := range workload.RankCountries(counts)[:10] {
		fmt.Fprintf(w, "%2d. %-3s %5d requests\n", i+1, c, counts[c])
	}
	return nil
}

// Table3 regenerates the extreme-difference table.
func Table3(r *Runner, w io.Writer) error {
	obs, err := r.liveDataset()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-24s %-20s %10s %12s\n", "domain", "product", "rel (×)", "abs (EUR)")
	for _, e := range analysis.TopExtremesByRelative(obs, 8) {
		fmt.Fprintf(w, "%-24s %-20s %10.2f %12.2f\n", e.Domain, e.SKU, e.Relative, e.AbsoluteEUR)
	}
	abs := analysis.TopExtremesByAbsolute(obs, 1)
	if len(abs) > 0 {
		fmt.Fprintf(w, "largest absolute: %s %s EUR %.0f\n", abs[0].Domain, abs[0].SKU, abs[0].AbsoluteEUR)
	}
	return nil
}

// Table4 regenerates the country extremes ranking.
func Table4(r *Runner, w io.Writer) error {
	obs, err := r.liveDataset()
	if err != nil {
		return err
	}
	expensive, cheapest := analysis.CountryExtremes(obs)
	fmt.Fprintf(w, "expensive: %v\n", head(expensive, 10))
	fmt.Fprintf(w, "cheapest:  %v\n", head(cheapest, 10))
	return nil
}

func head(xs []string, n int) []string {
	if len(xs) < n {
		return xs
	}
	return xs[:n]
}

// caseDomains are the three within-country case studies of Sect. 7.3.
var caseDomains = []string{"chegg.com", "jcpenney.com", "amazon.com"}

// Table5 regenerates the within-country percentage table.
func Table5(r *Runner, w io.Writer) error {
	m := r.Mall()
	countries := []string{"ES", "FR", "GB", "DE"}
	reps := 5
	if r.cfg.Full {
		reps = 15
	}
	pct := map[string]map[string]float64{}
	for ci, country := range countries {
		points, err := analysis.StandardIPCFleet(m.World, r.cfg.Seed+3)
		if err != nil {
			return err
		}
		ppcs, err := analysis.CountryPPCs(m.World, r.cfg.Seed+4+int64(ci), country, 3)
		if err != nil {
			return err
		}
		ppcs[0].LoggedIn = map[string]bool{"amazon.com": true}
		c := analysis.NewCrawler(m, append(points, ppcs...))
		var specs []analysis.SweepSpec
		for _, d := range caseDomains {
			specs = append(specs, analysis.SweepSpec{Domain: d, Products: 25, Reps: reps, DayStep: 1})
		}
		obs, err := c.Sweep(specs)
		if err != nil {
			return err
		}
		for d, byCountry := range analysis.WithinCountryDiffPct(obs) {
			if pct[d] == nil {
				pct[d] = map[string]float64{}
			}
			pct[d][country] = byCountry[country]
		}
	}
	fmt.Fprintf(w, "%-14s %8s %8s %8s %8s\n", "domain", "ES", "FR", "GB", "DE")
	for _, d := range caseDomains {
		fmt.Fprintf(w, "%-14s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			d, pct[d]["ES"], pct[d]["FR"], pct[d]["GB"], pct[d]["DE"])
	}
	return nil
}

// Fig2 runs one full price check through a live System and renders the
// result page.
func Fig2(r *Runner, w io.Writer) error {
	mall := shop.NewMall(shop.MallConfig{Seed: r.cfg.Seed, NumDomains: 40, NumLocationPD: 15, NumAlexa: 5})
	sys, err := core.NewSystem(core.Config{Mall: mall, PPCTimeout: 30 * time.Second, Seed: r.cfg.Seed})
	if err != nil {
		return err
	}
	defer sys.Close()
	for i := 0; i < 4; i++ {
		if _, err := sys.AddUser(fmt.Sprintf("fig2-user-%d", i), "ES", ""); err != nil {
			return err
		}
	}
	s, _ := mall.Shop("digitalrev.com")
	res, err := sys.PriceCheckContext(context.Background(), "fig2-user-0", s.ProductURL(s.Products()[0].SKU))
	if err != nil {
		return err
	}
	fmt.Fprint(w, core.FormatResult(res))
	return nil
}

// Fig5 regenerates the adoption timeline.
func Fig5(r *Runner, w io.Writer) error {
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	for _, wk := range workload.AdoptionTimeline(rng, 60, []int{12, 28, 44}) {
		if wk.Week%4 == 0 || wk.Downloads > 150 {
			fmt.Fprintf(w, "week %2d: downloads %4d  active %4d\n", wk.Week, wk.Downloads, wk.ActiveUsers)
		}
	}
	return nil
}

func profileFixture(seed int64, users int) ([]map[string]int, []string) {
	rng := rand.New(rand.NewSource(seed))
	specs := workload.Users(rng, users, []string{"ES", "FR", "DE", "US"}, 1)
	universe := workload.AlexaDomains(400)
	return workload.HistoriesBiased(rng, specs, universe, 300, 40, 0.9), universe
}

func silhouetteFor(histories []map[string]int, basis []string, k int) float64 {
	points := make([]cluster.Point, len(histories))
	for i, h := range histories {
		points[i] = cluster.Vectorize(h, basis)
	}
	if k > len(points) {
		return -1
	}
	// k-means with a handful of restarts: single runs at larger k get
	// stuck in local optima and would make the Fig. 8 curves jumpy.
	best := -1.0
	for seed := int64(1); seed <= 5; seed++ {
		res, err := cluster.KMeans(rand.New(rand.NewSource(seed)), points, k, 25)
		if err != nil {
			continue
		}
		if s := cluster.Silhouette(points, res.Assign, k); s > best {
			best = s
		}
	}
	return best
}

// Fig8a regenerates the basis comparison.
func Fig8a(r *Runner, w io.Writer) error {
	histories, universe := profileFixture(r.cfg.Seed, 500)
	fmt.Fprintf(w, "%6s %18s %18s\n", "m", "users-top", "alexa-top")
	for _, m := range []int{50, 100, 150, 200} {
		su := silhouetteFor(histories, cluster.TopDomains(histories, m), 40)
		sa := silhouetteFor(histories, universe[:m], 40)
		fmt.Fprintf(w, "%6d %18.3f %18.3f\n", m, su, sa)
	}
	return nil
}

// Fig8b regenerates the k sweep.
func Fig8b(r *Runner, w io.Writer) error {
	histories, universe := profileFixture(r.cfg.Seed, 500)
	basis := universe[:100]
	for _, k := range []int{5, 10, 20, 40, 60, 100, 150} {
		fmt.Fprintf(w, "k=%3d silhouette=%.3f\n", k, silhouetteFor(histories, basis, k))
	}
	return nil
}

// Fig8c times the privacy-preserving k-means.
func Fig8c(r *Runner, w io.Writer) error {
	users := 60
	ks := []int{10, 20, 40}
	if r.cfg.Full {
		users = 200
		ks = []int{50, 100, 150, 200}
	}
	histories, universe := profileFixture(r.cfg.Seed, users)
	for _, m := range []int{50, 100} {
		basis := universe[:m]
		points := make([]cluster.Point, len(histories))
		for i, h := range histories {
			points[i] = cluster.Vectorize(h, basis)
		}
		for _, k := range ks {
			if k > len(points) {
				continue
			}
			for _, threads := range []int{1, 4} {
				start := time.Now()
				if _, err := privkmeans.Run(privkmeans.Config{
					K: k, M: m, Threads: threads, Seed: 3, MaxIter: 1, HaltFrac: 1,
				}, points); err != nil {
					return err
				}
				fmt.Fprintf(w, "m=%3d k=%3d threads=%d users=%d: one iteration in %v\n",
					m, k, threads, users, time.Since(start).Round(time.Millisecond))
			}
		}
	}
	return nil
}

// Fig9 regenerates the live-dataset domain table.
func Fig9(r *Runner, w io.Writer) error {
	obs, err := r.liveDataset()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-26s %7s %9s %9s %9s\n", "domain", "checks", "w/diff", "median", "max")
	shown := 0
	for _, d := range analysis.PerDomain(obs) {
		if d.ChecksWithDiff == 0 || shown >= 29 {
			continue
		}
		fmt.Fprintf(w, "%-26s %7d %9d %8.1f%% %8.1f%%\n",
			d.Domain, d.Checks, d.ChecksWithDiff, 100*d.Box.Median, 100*d.Box.Max)
		shown++
	}
	return nil
}

// Fig10 regenerates the ratio-vs-price tiers.
func Fig10(r *Runner, w io.Writer) error {
	obs, err := r.liveDataset()
	if err != nil {
		return err
	}
	points := analysis.RatioVsMinPrice(obs)
	tiers := []struct {
		name   string
		lo, hi float64
	}{{"EUR 5-1k", 5, 1000}, {"EUR 1k-10k", 1000, 10000}, {"EUR 10k-100k", 10000, 100000}}
	for _, tier := range tiers {
		maxRatio, n := 1.0, 0
		for _, p := range points {
			if p.MinPrice >= tier.lo && p.MinPrice < tier.hi {
				n++
				if p.Ratio > maxRatio {
					maxRatio = p.Ratio
				}
			}
		}
		fmt.Fprintf(w, "%-13s products=%4d  max ratio=%.2f\n", tier.name, n, maxRatio)
	}
	return nil
}

// Fig11 regenerates the within-Spain crawl.
func Fig11(r *Runner, w io.Writer) error {
	m := r.Mall()
	points, err := analysis.StandardIPCFleet(m.World, r.cfg.Seed+11)
	if err != nil {
		return err
	}
	ppcs, err := analysis.CountryPPCs(m.World, r.cfg.Seed+12, "ES", 3)
	if err != nil {
		return err
	}
	c := analysis.NewCrawler(m, append(points, ppcs...))
	crawl := []string{
		"anntaylor.com", "steampowered.com", "abercrombie.com", "jcpenney.com",
		"chegg.com", "amazon.com", "overstock.com", "suitsupply.com",
		"luisaviaroma.com", "digitalrev.com", "aeropostale.com", "bookdepository.com",
	}
	products, reps := 6, 3
	if r.cfg.Full {
		products, reps = 30, 15
	}
	var specs []analysis.SweepSpec
	for _, d := range crawl {
		specs = append(specs, analysis.SweepSpec{Domain: d, Products: products, Reps: reps, DayStep: 1})
	}
	obs, err := c.Sweep(specs)
	if err != nil {
		return err
	}
	for _, d := range analysis.PerDomain(obs) {
		if d.ChecksWithDiff == 0 {
			continue
		}
		fmt.Fprintf(w, "%-22s checks=%4d w/diff=%4d median=%5.1f%% max=%5.1f%%\n",
			d.Domain, d.Checks, d.ChecksWithDiff, 100*d.Box.Median, 100*d.Box.Max)
	}
	return nil
}

// Fig12 regenerates the per-country scatter summary.
func Fig12(r *Runner, w io.Writer) error {
	m := r.Mall()
	reps := 5
	if r.cfg.Full {
		reps = 15
	}
	for ci, country := range []string{"ES", "FR", "GB", "DE"} {
		points, err := analysis.StandardIPCFleet(m.World, r.cfg.Seed+21)
		if err != nil {
			return err
		}
		ppcs, err := analysis.CountryPPCs(m.World, r.cfg.Seed+22+int64(ci), country, 3)
		if err != nil {
			return err
		}
		ppcs[0].LoggedIn = map[string]bool{"amazon.com": true}
		c := analysis.NewCrawler(m, append(points, ppcs...))
		var specs []analysis.SweepSpec
		for _, d := range caseDomains {
			specs = append(specs, analysis.SweepSpec{Domain: d, Products: 15, Reps: reps, DayStep: 1})
		}
		obs, err := c.Sweep(specs)
		if err != nil {
			return err
		}
		for _, d := range caseDomains {
			sc := analysis.WithinCountryScatter(obs, d, country)
			maxDiff := 0.0
			for _, p := range sc {
				if p.MaxRelDiff > maxDiff {
					maxDiff = p.MaxRelDiff
				}
			}
			fmt.Fprintf(w, "%-2s %-14s products=%3d max within-country diff=%5.1f%%\n",
				country, d, len(sc), 100*maxDiff)
		}
	}
	return nil
}

// Fig13 regenerates the per-peer bias plots.
func Fig13(r *Runner, w io.Writer) error {
	m := r.Mall()
	for _, country := range []string{"FR", "GB"} {
		ppcs, err := analysis.CountryPPCs(m.World, r.cfg.Seed+31, country, 10)
		if err != nil {
			return err
		}
		c := analysis.NewCrawler(m, ppcs)
		obs, err := c.Sweep([]analysis.SweepSpec{
			{Domain: "jcpenney.com", Products: 20, Reps: 5, DayStep: 1},
		})
		if err != nil {
			return err
		}
		bias := analysis.PerPeerBias(obs, "jcpenney.com", country)
		fmt.Fprintf(w, "%s peer medians:", country)
		for _, p := range bias {
			fmt.Fprintf(w, " %.1f%%", 100*p.Median)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func temporal(r *Runner, w io.Writer, domain string) error {
	m := r.Mall()
	ppcs, err := analysis.CountryPPCs(m.World, r.cfg.Seed+41, "ES", 4)
	if err != nil {
		return err
	}
	for _, v := range ppcs {
		v.Persistent = false // Sect. 7.5 uses clean profiles
	}
	c := analysis.NewCrawler(m, ppcs)
	var specs []analysis.SweepSpec
	for half := 0; half < 2; half++ {
		specs = append(specs, analysis.SweepSpec{
			Domain: domain, Products: 5, Reps: 20, StartDay: 0.5 * float64(half), DayStep: 1,
		})
	}
	obs, err := c.Sweep(specs)
	if err != nil {
		return err
	}
	trends := analysis.Temporal(obs, domain)
	for _, tr := range trends {
		fmt.Fprintf(w, "%-16s slope=%+.3f EUR/day  daily fluctuation=%.1f%%\n",
			tr.SKU, tr.Slope, 100*tr.DailyVar)
	}
	fmt.Fprintf(w, "revenue delta over 20 days (1 sale each): EUR %+.0f\n", analysis.RevenueDelta(trends))
	return nil
}

// Fig14 regenerates jcpenney's temporal panel.
func Fig14(r *Runner, w io.Writer) error { return temporal(r, w, "jcpenney.com") }

// Fig15 regenerates chegg's temporal panel.
func Fig15(r *Runner, w io.Writer) error { return temporal(r, w, "chegg.com") }

// Sect75 regenerates the statistical battery.
func Sect75(r *Runner, w io.Writer) error {
	m := r.Mall()
	ppcs, err := analysis.CountryPPCs(m.World, r.cfg.Seed+51, "ES", 9)
	if err != nil {
		return err
	}
	for _, v := range ppcs {
		v.Persistent = false
	}
	c := analysis.NewCrawler(m, ppcs)
	for _, domain := range []string{"jcpenney.com", "chegg.com"} {
		obs, err := c.Sweep([]analysis.SweepSpec{
			{Domain: domain, Products: 20, Reps: 8, DayStep: 0.5},
		})
		if err != nil {
			return err
		}
		v := analysis.TestABVsPDIPD(obs, domain, r.cfg.Seed)
		fmt.Fprintf(w, "%-14s KS pairs=%d rejectFrac=%.2f maxD=%.2f R²=%.3f significant=%v → A/B testing=%v\n",
			domain, v.Pairs, v.RejectFrac, v.MaxD, v.RegressionR2, v.Significant, v.ABTesting)
	}
	return nil
}

// Sect76 regenerates the Alexa top-400 sweep.
func Sect76(r *Runner, w io.Writer) error {
	m := r.Mall()
	ipcs, err := analysis.CountryPPCs(m.World, r.cfg.Seed+61, "ES", 2)
	if err != nil {
		return err
	}
	ppcs, err := analysis.CountryPPCs(m.World, r.cfg.Seed+62, "ES", 3)
	if err != nil {
		return err
	}
	c := analysis.NewCrawler(m, append(ipcs, ppcs...))
	products, reps := 3, 3
	if r.cfg.Full {
		products, reps = 5, 3
	}
	var specs []analysis.SweepSpec
	for _, d := range m.Alexa400 {
		specs = append(specs, analysis.SweepSpec{Domain: d, Products: products, Reps: reps, DayStep: 1})
	}
	obs, err := c.Sweep(specs)
	if err != nil {
		return err
	}
	pct := analysis.WithinCountryDiffPct(obs)
	var flagged []string
	for d, byCountry := range pct {
		if byCountry["ES"] > 0 {
			flagged = append(flagged, d)
		}
	}
	sort.Strings(flagged)
	fmt.Fprintf(w, "Alexa domains checked: %d\n", len(m.Alexa400))
	fmt.Fprintf(w, "with within-country differences: %d %v (paper: 0)\n", len(flagged), flagged)
	return nil
}
