// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark prints a compact version of the table/series
// it reproduces on its first iteration; cmd/benchtab prints the full
// versions (and EXPERIMENTS.md records paper-vs-measured values).
//
// Heavy experiments use reduced-but-faithful workloads so `go test
// -bench=.` completes in minutes; the shapes under test (who wins, by what
// factor, where crossovers fall) are asserted by the unit suites of
// internal/analysis and internal/perf.
package pricesheriff

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pricesheriff/internal/analysis"
	"pricesheriff/internal/browser"
	"pricesheriff/internal/cluster"
	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/core"
	"pricesheriff/internal/perf"
	"pricesheriff/internal/privkmeans"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/workload"
)

var printOnce sync.Map

// once prints a labelled block a single time across all benchmark
// iterations and re-runs.
func once(label, text string) {
	if _, loaded := printOnce.LoadOrStore(label, true); !loaded {
		fmt.Printf("\n--- %s ---\n%s", label, text)
	}
}

// --- shared fixtures ---

var (
	liveMallOnce sync.Once
	liveMall     *shop.Mall
)

// benchMall is a mid-scale world: all named retailers, a few hundred
// generic domains.
func benchMall() *shop.Mall {
	liveMallOnce.Do(func() {
		liveMall = shop.NewMall(shop.MallConfig{
			Seed: 2017, NumDomains: 300, NumLocationPD: 60, NumAlexa: 60,
		})
	})
	return liveMall
}

var (
	liveObsOnce sync.Once
	liveObs     []analysis.Obs
)

// liveDataset approximates the live deployment's observation set: every
// named retailer plus a sample of the generic population, checked from the
// 30 IPCs and 3 Spanish PPCs.
func liveDataset(b *testing.B) []analysis.Obs {
	b.Helper()
	liveObsOnce.Do(func() {
		m := benchMall()
		points, err := analysis.StandardIPCFleet(m.World, 1)
		if err != nil {
			b.Fatal(err)
		}
		ppcs, err := analysis.CountryPPCs(m.World, 2, "ES", 3)
		if err != nil {
			b.Fatal(err)
		}
		c := analysis.NewCrawler(m, append(points, ppcs...))
		var specs []analysis.SweepSpec
		for i, d := range m.LocationPDDomains {
			reps := 1
			if i < 30 {
				reps = 3 // Fig. 9 needs ≥10 observations for head domains
			}
			specs = append(specs, analysis.SweepSpec{Domain: d, Products: 4, Reps: reps, DayStep: 1})
		}
		// A slice of the static long tail (live users checked 1994 domains;
		// most showed nothing).
		count := 0
		for _, d := range m.Domains() {
			if s, _ := m.Shop(d); s != nil && s.Strategy == nil {
				specs = append(specs, analysis.SweepSpec{Domain: d, Products: 1, Reps: 1})
				count++
				if count >= 60 {
					break
				}
			}
		}
		obs, err := c.Sweep(specs)
		if err != nil {
			b.Fatal(err)
		}
		liveObs = obs
	})
	return liveObs
}

// --- Table 1: system performance analysis ---

func BenchmarkTable1(b *testing.B) {
	model := perf.DefaultModel()
	for i := 0; i < b.N; i++ {
		var out string
		out += fmt.Sprintf("%-11s %8s %9s %8s %15s %12s\n",
			"version", "clients", "servers", "tasks", "resp (min/task)", "daily req")
		for _, sc := range perf.Table1Scenarios() {
			r := perf.Simulate(sc, model, 1)
			out += perf.FormatRow(r) + "\n"
		}
		once("Table 1: performance analysis (old vs new architecture)", out)
	}
}

// --- Table 2: top countries by requests ---

func BenchmarkTable2(b *testing.B) {
	world := benchMall().World
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(2))
		users := workload.Users(rng, 1265, world.Countries(), 459.0/1265)
		reqs := workload.Requests(rng, users, benchMall().Domains(), 5700, 396)
		counts := workload.CountryRequestCounts(users, reqs)
		ranked := workload.RankCountries(counts)
		var out string
		for j, c := range ranked[:10] {
			out += fmt.Sprintf("%2d. %-3s %5d requests\n", j+1, c, counts[c])
		}
		once("Table 2: top-10 countries by price-check requests", out)
	}
}

// --- Table 3: extreme price differences ---

func BenchmarkTable3(b *testing.B) {
	obs := liveDataset(b)
	for i := 0; i < b.N; i++ {
		rel := analysis.TopExtremesByRelative(obs, 8)
		abs := analysis.TopExtremesByAbsolute(obs, 3)
		var out string
		out += fmt.Sprintf("%-24s %-18s %10s %12s\n", "domain", "product", "rel (×)", "abs (EUR)")
		for _, e := range rel {
			out += fmt.Sprintf("%-24s %-18s %10.2f %12.2f\n", e.Domain, e.SKU, e.Relative, e.AbsoluteEUR)
		}
		out += fmt.Sprintf("largest absolute: %s %s EUR %.0f\n", abs[0].Domain, abs[0].SKU, abs[0].AbsoluteEUR)
		once("Table 3: extreme observed price differences", out)
	}
}

// --- Table 4: most expensive / cheapest countries ---

func BenchmarkTable4(b *testing.B) {
	obs := liveDataset(b)
	for i := 0; i < b.N; i++ {
		expensive, cheapest := analysis.CountryExtremes(obs)
		n := 10
		if len(expensive) < n {
			n = len(expensive)
		}
		out := fmt.Sprintf("expensive: %v\n", expensive[:n])
		if len(cheapest) < n {
			n = len(cheapest)
		}
		out += fmt.Sprintf("cheapest:  %v\n", cheapest[:n])
		once("Table 4: most expensive / cheapest countries", out)
	}
}

// --- Table 5: % of requests with price difference, per domain/country ---

func BenchmarkTable5(b *testing.B) {
	m := benchMall()
	for i := 0; i < b.N; i++ {
		var out string
		out += fmt.Sprintf("%-14s %8s %8s %8s %8s\n", "domain", "ES", "FR", "GB", "DE")
		pct := map[string]map[string]float64{}
		for _, country := range []string{"ES", "FR", "GB", "DE"} {
			points, err := analysis.StandardIPCFleet(m.World, 3)
			if err != nil {
				b.Fatal(err)
			}
			ppcs, err := analysis.CountryPPCs(m.World, int64(4+i), country, 3)
			if err != nil {
				b.Fatal(err)
			}
			// Some real users were logged in at amazon (Sect. 7.3).
			ppcs[0].LoggedIn = map[string]bool{"amazon.com": true}
			c := analysis.NewCrawler(m, append(points, ppcs...))
			obs, err := c.Sweep([]analysis.SweepSpec{
				{Domain: "chegg.com", Products: 25, Reps: 5, DayStep: 1},
				{Domain: "jcpenney.com", Products: 25, Reps: 5, DayStep: 1},
				{Domain: "amazon.com", Products: 25, Reps: 5, DayStep: 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			for d, byCountry := range analysis.WithinCountryDiffPct(obs) {
				if pct[d] == nil {
					pct[d] = map[string]float64{}
				}
				pct[d][country] = byCountry[country]
			}
		}
		for _, d := range []string{"chegg.com", "jcpenney.com", "amazon.com"} {
			out += fmt.Sprintf("%-14s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
				d, pct[d]["ES"], pct[d]["FR"], pct[d]["GB"], pct[d]["DE"])
		}
		once("Table 5: % of requests with a within-country price difference", out)
	}
}

// --- Fig 2: the result page (full protocol, end to end) ---

func BenchmarkFig2(b *testing.B) {
	mall := shop.NewMall(shop.MallConfig{Seed: 5, NumDomains: 40, NumLocationPD: 15, NumAlexa: 5})
	sys, err := core.NewSystem(core.Config{Mall: mall, PPCTimeout: 10 * time.Second, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	for i := 0; i < 4; i++ {
		if _, err := sys.AddUser(fmt.Sprintf("bench-user-%d", i), "ES", ""); err != nil {
			b.Fatal(err)
		}
	}
	s, _ := mall.Shop("digitalrev.com")
	url := s.ProductURL(s.Products()[0].SKU)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.PriceCheckContext(context.Background(), "bench-user-0", url)
		if err != nil {
			b.Fatal(err)
		}
		once("Fig 2: result page for one price check", core.FormatResult(res))
	}
}

// --- Fig 5: adoption timeline with press spikes ---

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(5))
		weeks := workload.AdoptionTimeline(rng, 60, []int{12, 28, 44})
		var out string
		for _, w := range weeks {
			if w.Week%4 == 0 || w.Downloads > 150 {
				out += fmt.Sprintf("week %2d: downloads %4d  active %4d\n", w.Week, w.Downloads, w.ActiveUsers)
			}
		}
		once("Fig 5: weekly downloads / active users (3 press spikes)", out)
	}
}

// --- Fig 8a/8b: silhouette vs basis and vs k ---

func fig8Profiles(seed int64, users int) ([]map[string]int, []string) {
	rng := rand.New(rand.NewSource(seed))
	specs := workload.Users(rng, users, []string{"ES", "FR", "DE", "US"}, 1)
	universe := workload.AlexaDomains(400)
	return workload.HistoriesBiased(rng, specs, universe, 300, 40, 0.9), universe
}

func BenchmarkFig8a(b *testing.B) {
	histories, universe := fig8Profiles(8, 500)
	for i := 0; i < b.N; i++ {
		var out string
		out += fmt.Sprintf("%6s %18s %18s\n", "m", "users-top", "alexa-top")
		for _, m := range []int{50, 100, 150, 200} {
			usersTop := cluster.TopDomains(histories, m)
			alexaTop := universe[:m]
			su := silhouetteFor(histories, usersTop, 40)
			sa := silhouetteFor(histories, alexaTop, 40)
			out += fmt.Sprintf("%6d %18.3f %18.3f\n", m, su, sa)
		}
		once("Fig 8a: silhouette score vs profile-vector basis", out)
	}
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

func BenchmarkFig8b(b *testing.B) {
	histories, universe := fig8Profiles(8, 500)
	basis := universe[:100]
	for i := 0; i < b.N; i++ {
		var out string
		for _, k := range []int{5, 10, 20, 40, 60, 100, 150} {
			out += fmt.Sprintf("k=%3d silhouette=%.3f\n", k, silhouetteFor(histories, basis, k))
		}
		once("Fig 8b: silhouette score vs number of clusters (k)", out)
	}
}

// --- Fig 8c: privacy-preserving k-means execution time ---

func BenchmarkFig8c(b *testing.B) {
	histories, universe := fig8Profiles(8, 60) // 60 clients keeps crypto affordable
	for _, m := range []int{50, 100} {
		basis := universe[:m]
		points := make([]cluster.Point, len(histories))
		for i, h := range histories {
			points[i] = cluster.Vectorize(h, basis)
		}
		for _, k := range []int{10, 20, 40} {
			for _, threads := range []int{1, 4} {
				name := fmt.Sprintf("m=%d/k=%d/threads=%d", m, k, threads)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						_, err := privkmeans.Run(privkmeans.Config{
							K: k, M: m, Threads: threads, Seed: 3, MaxIter: 1, HaltFrac: 1,
						}, points)
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// --- Fig 9 / Fig 10: live dataset analyses ---

func BenchmarkFig9(b *testing.B) {
	obs := liveDataset(b)
	for i := 0; i < b.N; i++ {
		per := analysis.PerDomain(obs)
		var out string
		out += fmt.Sprintf("%-26s %7s %9s %9s %9s\n", "domain", "checks", "w/diff", "median", "max")
		shown := 0
		for _, d := range per {
			if d.ChecksWithDiff == 0 || shown >= 16 {
				continue
			}
			out += fmt.Sprintf("%-26s %7d %9d %8.1f%% %8.1f%%\n",
				d.Domain, d.Checks, d.ChecksWithDiff, 100*d.Box.Median, 100*d.Box.Max)
			shown++
		}
		once("Fig 9: domains with price differences (live dataset)", out)
	}
}

func BenchmarkFig10(b *testing.B) {
	obs := liveDataset(b)
	for i := 0; i < b.N; i++ {
		points := analysis.RatioVsMinPrice(obs)
		// Bucket the scatter into the paper's price tiers.
		var out string
		tiers := []struct {
			name   string
			lo, hi float64
		}{
			{"€5-1k", 5, 1000}, {"€1k-10k", 1000, 10000}, {"€10k-100k", 10000, 100000},
		}
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
			out += fmt.Sprintf("%-10s products=%4d  max ratio=%.2f\n", tier.name, n, maxRatio)
		}
		once("Fig 10: max/min price ratio vs product price tier", out)
	}
}

// --- Fig 11: systematic crawl within Spain ---

func BenchmarkFig11(b *testing.B) {
	m := benchMall()
	for i := 0; i < b.N; i++ {
		points, _ := analysis.StandardIPCFleet(m.World, 11)
		ppcs, _ := analysis.CountryPPCs(m.World, 12, "ES", 3)
		c := analysis.NewCrawler(m, append(points, ppcs...))
		var specs []analysis.SweepSpec
		crawlDomains := []string{
			"anntaylor.com", "steampowered.com", "abercrombie.com",
			"jcpenney.com", "chegg.com", "amazon.com", "overstock.com",
			"suitsupply.com", "luisaviaroma.com", "digitalrev.com",
		}
		for _, d := range crawlDomains {
			specs = append(specs, analysis.SweepSpec{Domain: d, Products: 6, Reps: 3, DayStep: 1})
		}
		obs, err := c.Sweep(specs)
		if err != nil {
			b.Fatal(err)
		}
		per := analysis.PerDomain(obs)
		var out string
		for _, d := range per {
			if d.ChecksWithDiff == 0 {
				continue
			}
			out += fmt.Sprintf("%-22s checks=%3d w/diff=%3d max=%5.1f%%\n",
				d.Domain, d.Checks, d.ChecksWithDiff, 100*d.Box.Max)
		}
		once("Fig 11: crawled dataset (peers within Spain)", out)
	}
}

// --- Fig 12: per-country within-country scatter ---

func BenchmarkFig12(b *testing.B) {
	m := benchMall()
	for i := 0; i < b.N; i++ {
		var out string
		for _, country := range []string{"ES", "FR", "GB", "DE"} {
			points, _ := analysis.StandardIPCFleet(m.World, 21)
			ppcs, _ := analysis.CountryPPCs(m.World, 22, country, 3)
			ppcs[0].LoggedIn = map[string]bool{"amazon.com": true}
			c := analysis.NewCrawler(m, append(points, ppcs...))
			obs, err := c.Sweep([]analysis.SweepSpec{
				{Domain: "chegg.com", Products: 15, Reps: 5, DayStep: 1},
				{Domain: "jcpenney.com", Products: 15, Reps: 5, DayStep: 1},
				{Domain: "amazon.com", Products: 15, Reps: 5, DayStep: 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range []string{"chegg.com", "jcpenney.com", "amazon.com"} {
				sc := analysis.WithinCountryScatter(obs, d, country)
				maxDiff := 0.0
				for _, p := range sc {
					if p.MaxRelDiff > maxDiff {
						maxDiff = p.MaxRelDiff
					}
				}
				out += fmt.Sprintf("%-2s %-14s products=%3d max within-country diff=%5.1f%%\n",
					country, d, len(sc), 100*maxDiff)
			}
		}
		once("Fig 12: within-country differences per country/domain", out)
	}
}

// --- Fig 13: per-peer bias ---

func BenchmarkFig13(b *testing.B) {
	m := benchMall()
	for i := 0; i < b.N; i++ {
		var out string
		for _, country := range []string{"FR", "GB"} {
			ppcs, _ := analysis.CountryPPCs(m.World, 31, country, 10)
			c := analysis.NewCrawler(m, ppcs)
			obs, err := c.Sweep([]analysis.SweepSpec{
				{Domain: "jcpenney.com", Products: 20, Reps: 5, DayStep: 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			bias := analysis.PerPeerBias(obs, "jcpenney.com", country)
			out += country + ": medians"
			for _, p := range bias {
				out += fmt.Sprintf(" %.1f%%", 100*p.Median)
			}
			out += "\n"
		}
		once("Fig 13: per-peer price difference vs cheapest peer (jcpenney)", out)
	}
}

// --- Fig 14 / Fig 15: temporal trends ---

func temporalBench(b *testing.B, domain, label string) {
	m := benchMall()
	for i := 0; i < b.N; i++ {
		ppcs, _ := analysis.CountryPPCs(m.World, 41, "ES", 4)
		for _, v := range ppcs {
			v.Persistent = false // clean profiles, as in Sect. 7.5
		}
		c := analysis.NewCrawler(m, ppcs)
		var specs []analysis.SweepSpec
		for half := 0; half < 2; half++ { // two fetches per day
			specs = append(specs, analysis.SweepSpec{
				Domain: domain, Products: 5, Reps: 20,
				StartDay: 0.5 * float64(half), DayStep: 1,
			})
		}
		obs, err := c.Sweep(specs)
		if err != nil {
			b.Fatal(err)
		}
		trends := analysis.Temporal(obs, domain)
		var out string
		for _, tr := range trends {
			out += fmt.Sprintf("%-16s slope=%+.3f EUR/day  daily fluctuation=%.1f%%\n",
				tr.SKU, tr.Slope, 100*tr.DailyVar)
		}
		out += fmt.Sprintf("revenue delta over 20 days (1 sale each): EUR %+.0f\n",
			analysis.RevenueDelta(trends))
		once(label, out)
	}
}

func BenchmarkFig14(b *testing.B) {
	temporalBench(b, "jcpenney.com", "Fig 14: 20-day temporal trends (jcpenney)")
}

func BenchmarkFig15(b *testing.B) {
	temporalBench(b, "chegg.com", "Fig 15: 20-day temporal trends (chegg)")
}

// --- Sect 7.5: A/B testing vs PDI-PD verdict ---

func BenchmarkSect75(b *testing.B) {
	m := benchMall()
	for i := 0; i < b.N; i++ {
		ppcs, _ := analysis.CountryPPCs(m.World, 51, "ES", 9)
		for _, v := range ppcs {
			v.Persistent = false
		}
		c := analysis.NewCrawler(m, ppcs)
		var out string
		for _, domain := range []string{"jcpenney.com", "chegg.com"} {
			obs, err := c.Sweep([]analysis.SweepSpec{
				{Domain: domain, Products: 20, Reps: 8, DayStep: 0.5},
			})
			if err != nil {
				b.Fatal(err)
			}
			v := analysis.TestABVsPDIPD(obs, domain, 7)
			out += fmt.Sprintf("%-14s KS pairs=%d rejectFrac=%.2f maxD=%.2f R²=%.3f significant=%v → A/B testing=%v\n",
				domain, v.Pairs, v.RejectFrac, v.MaxD, v.RegressionR2, v.Significant, v.ABTesting)
		}
		once("Sect 7.5: A/B-testing-vs-PDI-PD statistical battery", out)
	}
}

// --- Sect 7.6: Alexa top-400 ---

func BenchmarkSect76(b *testing.B) {
	m := benchMall()
	for i := 0; i < b.N; i++ {
		ipcs, _ := analysis.CountryPPCs(m.World, 61, "ES", 2)
		ppcs, _ := analysis.CountryPPCs(m.World, 62, "ES", 3)
		c := analysis.NewCrawler(m, append(ipcs, ppcs...))
		var specs []analysis.SweepSpec
		for _, d := range m.Alexa400 {
			specs = append(specs, analysis.SweepSpec{Domain: d, Products: 3, Reps: 3, DayStep: 1})
		}
		obs, err := c.Sweep(specs)
		if err != nil {
			b.Fatal(err)
		}
		pct := analysis.WithinCountryDiffPct(obs)
		flagged := 0
		for _, byCountry := range pct {
			if byCountry["ES"] > 0 {
				flagged++
			}
		}
		once("Sect 7.6: Alexa top e-commerce within-country sweep",
			fmt.Sprintf("domains checked=%d, with within-country differences=%d (paper: 0)\n",
				len(m.Alexa400), flagged))
	}
}

// --- Ablation: least-pending vs round-robin on heterogeneous servers ---

func BenchmarkAblationScheduler(b *testing.B) {
	// Four servers, one of them 4× slower (the paper's motivation: "long
	// pending queues to Measurement servers with lower specifications").
	speeds := []float64{1, 1, 1, 0.25}
	run := func(policy coordinator.Policy, seed int64) float64 {
		sl := coordinator.NewServerList(time.Hour, policy, nil)
		for i := range speeds {
			sl.Register(fmt.Sprintf("ms-%d", i))
		}
		type job struct {
			server string
			done   float64
		}
		rng := rand.New(rand.NewSource(seed))
		busyUntil := make(map[string]float64)
		var totalResp float64
		var jobs []job
		now := 0.0
		for n := 0; n < 400; n++ {
			now += rng.ExpFloat64() * 12 // mean 12s between requests
			addr, err := sl.Assign()
			if err != nil {
				b.Fatal(err)
			}
			idx := int(addr[3] - '0')
			service := 30 / speeds[idx]
			start := now
			if busyUntil[addr] > now {
				start = busyUntil[addr]
			}
			finish := start + service
			busyUntil[addr] = finish
			totalResp += finish - now
			jobs = append(jobs, job{server: addr, done: finish})
			// Complete any finished jobs (decrement pending).
			kept := jobs[:0]
			for _, j := range jobs {
				if j.done <= now {
					sl.Done(j.server)
				} else {
					kept = append(kept, j)
				}
			}
			jobs = kept
		}
		return totalResp / 400
	}
	for i := 0; i < b.N; i++ {
		lp := run(coordinator.LeastPending, 1)
		rr := run(coordinator.RoundRobin, 1)
		once("Ablation: job distribution policy (heterogeneous servers)",
			fmt.Sprintf("least-pending mean response = %.0fs\nround-robin  mean response = %.0fs (%.1f× worse)\n",
				lp, rr, rr/lp))
	}
}

// --- Ablation: doppelgangers vs raw peer state ---

func BenchmarkAblationDoppelganger(b *testing.B) {
	m := shop.NewMall(shop.MallConfig{Seed: 71, NumDomains: 40, NumLocationPD: 10, NumAlexa: 5})
	s, _ := m.Shop("chegg.com")
	url := s.ProductURL(s.Products()[0].SKU)
	for i := 0; i < b.N; i++ {
		// A peer whose user browsed chegg 4 times; then 40 remote fetches.
		ip, _ := m.World.RandomIP(rand.New(rand.NewSource(72)), "ES", "")
		run := func(useDopp bool) int {
			br := newBenchBrowser(ip.String())
			f := shop.LocalFetcher{Mall: m}
			for v := 0; v < 4; v++ {
				br.BrowseProduct(context.Background(), f, url, 0)
			}
			cookie := br.Cookie("adnet.example")
			before := m.Trackers[0].InterestScore(cookie, "textbooks")
			for r := 0; r < 40; r++ {
				state := browser.StateOwn
				if useDopp && br.NeedsDoppelganger("chegg.com") {
					state = browser.StateClean // stand-in for dopp state
				}
				br.SandboxFetch(context.Background(), f, url, 1, state, nil)
			}
			return m.Trackers[0].InterestScore(cookie, "textbooks") - before
		}
		withDopp := run(true)
		withoutDopp := run(false)
		once("Ablation: server-side profile pollution with/without doppelgangers",
			fmt.Sprintf("tracker profile growth after 40 remote fetches:\n  with doppelganger budget: +%d visits\n  without protection:       +%d visits\n",
				withDopp, withoutDopp))
	}
}

// newBenchBrowser builds a browser for the doppelganger ablation.
func newBenchBrowser(ip string) *browser.Browser {
	return browser.New("ablation-peer", ip, "linux", "firefox")
}

// --- Live system throughput: the real stack's companion to Table 1 ---

func BenchmarkLiveThroughput(b *testing.B) {
	mall := shop.NewMall(shop.MallConfig{Seed: 91, NumDomains: 40, NumLocationPD: 12, NumAlexa: 5})
	sys, err := core.NewSystem(core.Config{
		Mall: mall, MeasurementServers: 2,
		IPCCountries: []string{"ES", "US", "GB", "DE", "JP", "FR"},
		PPCTimeout:   10 * time.Second, Seed: 91,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	// Every iteration is to be a whole fan-out: five URLs come round far
	// inside the default TTL and would be answered from the first five.
	sys.Coord.VerdictTTL = time.Nanosecond
	for i := 0; i < 4; i++ {
		if _, err := sys.AddUser(fmt.Sprintf("tp-user-%d", i), "ES", ""); err != nil {
			b.Fatal(err)
		}
	}
	s, _ := mall.Shop("chegg.com")
	urls := make([]string, 0, 5)
	for _, p := range s.Products()[:5] {
		urls = append(urls, s.ProductURL(p.SKU))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sys.PriceCheckContext(context.Background(), fmt.Sprintf("tp-user-%d", i%4), urls[i%len(urls)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()*86400, "checks/day")
}
