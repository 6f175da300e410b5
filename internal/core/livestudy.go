package core

import (
	"math/rand"

	"pricesheriff/internal/analysis"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/workload"
)

// StudyResult summarizes a live-study replay: the paper's 14-month
// deployment condensed into a driven request stream (Sect. 6.1: 1265
// users, 5700+ requests, 1994 domains, 160k responses).
type StudyResult struct {
	Requests  int // price checks attempted
	Skipped   int // unknown user or domain outside the world
	Failed    int // checks that errored
	Responses int // individual vantage-point responses collected
	Obs       []analysis.Obs
}

// RunLiveStudy replays a workload request stream through the full system:
// each request advances the virtual clock, picks one of the domain's
// products, and runs the real five-step price-check protocol as the
// request's user. Every successful vantage-point response becomes an
// analysis observation, so the whole Sect. 6 analysis pipeline runs over
// data produced by the actual system rather than the crawler.
func (s *System) RunLiveStudy(rng *rand.Rand, reqs []workload.Request) (*StudyResult, error) {
	res := &StudyResult{}
	check := 0
	for _, req := range reqs {
		sh, ok := s.Mall.Shop(req.Domain)
		if !ok || len(sh.Products()) == 0 {
			res.Skipped++
			continue
		}
		if _, ok := s.User(req.UserID); !ok {
			res.Skipped++
			continue
		}
		if day := s.Day(); req.Day > day {
			s.AdvanceDay(req.Day - day)
		}
		product := sh.Products()[rng.Intn(len(sh.Products()))]
		res.Requests++
		out, err := s.PriceCheckContext(s.baseCtx, req.UserID, sh.ProductURL(product.SKU))
		if err != nil {
			res.Failed++
			continue
		}
		check++
		for _, row := range out.Rows {
			if row.Err != "" || row.Kind == "initiator" {
				continue
			}
			res.Responses++
			res.Obs = append(res.Obs, analysis.Obs{
				Check:    check,
				Domain:   req.Domain,
				SKU:      product.SKU,
				Point:    row.PeerID,
				Kind:     row.Kind,
				Country:  row.Country,
				PriceEUR: row.Converted,
				Day:      req.Day,
			})
		}
	}
	return res, nil
}

// PickStudyDomains samples n checkable domains for a study, weighting the
// named case-study retailers in first.
func PickStudyDomains(mall *shop.Mall, rng *rand.Rand, n int) []string {
	head := []string{"jcpenney.com", "chegg.com", "amazon.com", "steampowered.com", "digitalrev.com"}
	var out []string
	for _, d := range head {
		if _, ok := mall.Shop(d); ok && len(out) < n {
			out = append(out, d)
		}
	}
	domains := mall.Domains()
	for len(out) < n && len(domains) > 0 {
		d := domains[rng.Intn(len(domains))]
		dup := false
		for _, have := range out {
			if have == d {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, d)
		}
	}
	return out
}
