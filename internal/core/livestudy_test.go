package core

import (
	"context"
	"math/rand"
	"testing"

	"pricesheriff/internal/analysis"
	"pricesheriff/internal/measurement"
	"pricesheriff/internal/workload"
)

func TestRunLiveStudyEndToEnd(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 4)
	specs := make([]workload.UserSpec, len(users))
	for i, u := range users {
		specs[i] = workload.UserSpec{ID: u.ID, Country: "ES", Activity: 1}
	}
	rng := rand.New(rand.NewSource(5))
	domains := PickStudyDomains(sys.Mall, rng, 6)
	reqs := workload.Requests(rng, specs, domains, 15, 10)

	res, err := sys.RunLiveStudy(rng, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 15 || res.Skipped != 0 {
		t.Fatalf("requests=%d skipped=%d", res.Requests, res.Skipped)
	}
	if res.Failed != 0 {
		t.Errorf("failed checks = %d", res.Failed)
	}
	// 6 IPCs + 3 PPCs per check.
	if want := 15 * 9; res.Responses != want {
		t.Errorf("responses = %d, want %d", res.Responses, want)
	}
	// The system's own recorded data feeds the Sect. 6 analysis.
	per := analysis.PerDomain(res.Obs)
	if len(per) == 0 {
		t.Fatal("no per-domain stats from live data")
	}
	withDiff := 0
	for _, d := range per {
		if d.ChecksWithDiff > 0 {
			withDiff++
		}
	}
	if withDiff == 0 {
		t.Error("live study over case-study domains found no differences")
	}
	// The virtual clock advanced with the stream.
	if sys.Day() <= 0 {
		t.Error("virtual day never advanced")
	}
}

func TestRunLiveStudySkipsUnknowns(t *testing.T) {
	sys := newSystem(t)
	addUsers(t, sys, "ES", 1)
	rng := rand.New(rand.NewSource(1))
	reqs := []workload.Request{
		{UserID: "ghost", Domain: "chegg.com"},
		{UserID: "ES-user-0", Domain: "not-in-world.com"},
	}
	res, err := sys.RunLiveStudy(rng, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 2 || res.Requests != 0 {
		t.Errorf("skipped=%d requests=%d", res.Skipped, res.Requests)
	}
}

func TestPickStudyDomains(t *testing.T) {
	sys := newSystem(t)
	rng := rand.New(rand.NewSource(2))
	domains := PickStudyDomains(sys.Mall, rng, 8)
	if len(domains) != 8 {
		t.Fatalf("domains = %d", len(domains))
	}
	if domains[0] != "jcpenney.com" {
		t.Errorf("case studies not prioritized: %v", domains)
	}
	seen := map[string]bool{}
	for _, d := range domains {
		if seen[d] {
			t.Errorf("duplicate domain %s", d)
		}
		seen[d] = true
		if _, ok := sys.Mall.Shop(d); !ok {
			t.Errorf("domain %s not in mall", d)
		}
	}
}

func TestStoredProcsOverSystemDB(t *testing.T) {
	sys := newSystem(t)
	users := addUsers(t, sys, "ES", 2)
	url := productURL(t, sys, "steampowered.com", 0)
	res, err := sys.PriceCheckContext(context.Background(), users[0].ID, url)
	if err != nil {
		t.Fatal(err)
	}
	// The price_spread stored procedure answers over the wire from the
	// system's own Database server.
	var spread measurement.SpreadResult
	if err := sys.DB().CallProcCtx(context.Background(), "price_spread", res.JobID, &spread); err != nil {
		t.Fatal(err)
	}
	if spread.Responses < 5 {
		t.Errorf("spread responses = %d", spread.Responses)
	}
	if spread.MaxEUR <= spread.MinEUR {
		t.Errorf("spread = %+v, want location PD visible", spread)
	}
	var counts map[string]int
	if err := sys.DB().CallProcCtx(context.Background(), "responses_by_domain", nil, &counts); err != nil {
		t.Fatal(err)
	}
	if counts["steampowered.com"] == 0 {
		t.Errorf("counts = %v", counts)
	}
}
