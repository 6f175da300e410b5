// Doppelganger: a walk-through of the privacy-preserving machinery of the
// paper's Sects. 3.6-3.8. Users donate domain-level browsing histories;
// the Coordinator and Aggregator run the encrypted k-means (the
// Coordinator learns only the centroids, the Aggregator only the
// client→cluster mapping); doppelganger browser profiles are trained from
// the centroids; and a peer that exhausts its pollution budget swaps in
// its doppelganger's client-side state for remote fetches — so the
// trackers profile the doppelganger, not the user.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"pricesheriff/internal/cluster"
	"pricesheriff/internal/core"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/workload"
)

func main() {
	log.SetFlags(0)
	mall := shop.NewMall(shop.MallConfig{Seed: 3, NumDomains: 60, NumLocationPD: 15, NumAlexa: 10})
	sys, err := core.NewSystem(core.Config{Mall: mall, PPCTimeout: 30 * time.Second, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Twelve Spanish users with group-structured browsing behaviour.
	rng := rand.New(rand.NewSource(4))
	basisUniverse := workload.AlexaDomains(40)
	specs := workload.Users(rng, 12, []string{"ES"}, 1)
	histories := workload.Histories(rng, specs, basisUniverse, 120, 3)
	var users []*core.User
	for i, spec := range specs {
		u, err := sys.AddUser(spec.ID, "ES", "")
		if err != nil {
			log.Fatal(err)
		}
		u.DonatesHistory = true
		for d, n := range histories[i] {
			for v := 0; v < n; v++ {
				u.Browser.RecordWebVisit(d, 0)
			}
		}
		users = append(users, u)
	}

	// Privacy-preserving clustering: 3 doppelgangers for 12 users.
	basis := basisUniverse[:20]
	out, err := sys.TrainDoppelgangers(3, basis, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clustered %d donated profiles into %d doppelgangers in %d iterations\n",
		len(users), len(out.Centroids), out.Iterations)
	fmt.Println("(the Coordinator saw only encrypted profiles; the Aggregator only the mapping)")

	for i, c := range out.Centroids {
		fmt.Printf("\ndoppelganger %d top domains:", i)
		type dv struct {
			d string
			v float64
		}
		var top []dv
		for j, v := range c {
			if v > 0.05 {
				top = append(top, dv{basis[j], v})
			}
		}
		for k := 0; k < len(top) && k < 4; k++ {
			best := k
			for l := k + 1; l < len(top); l++ {
				if top[l].v > top[best].v {
					best = l
				}
			}
			top[k], top[best] = top[best], top[k]
			fmt.Printf(" %s(%.2f)", top[k].d, top[k].v)
		}
	}
	fmt.Println()

	// Silhouette of the private clustering vs the plain baseline.
	points := make([]cluster.Point, len(users))
	for i, u := range users {
		points[i] = cluster.Vectorize(u.Browser.HistoryDomains(), basis)
	}
	sPriv := cluster.Silhouette(points, out.Assign, 3)
	plain, _ := cluster.KMeans(rand.New(rand.NewSource(1)), points, 3, 0)
	fmt.Printf("\nsilhouette: private protocol %.3f vs cleartext k-means %.3f\n",
		sPriv, cluster.Silhouette(points, plain.Assign, 3))

	// Pollution budget in action: user-1 visits chegg once (budget 0),
	// then serves a remote request — which must run under doppelganger
	// state, leaving the user's tracker profile untouched.
	cheggShop, _ := mall.Shop("chegg.com")
	url := cheggShop.ProductURL(cheggShop.Products()[0].SKU)
	u := users[1]
	if _, err := u.Browser.BrowseProduct(context.Background(), u.Node.Fetcher, url, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nuser %s visited chegg.com once; own-state budget: needs doppelganger = %v\n",
		u.ID, u.Browser.NeedsDoppelganger("chegg.com"))

	res, err := sys.PriceCheckContext(context.Background(), users[0].ID, url)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Kind == "ppc" {
			fmt.Printf("  PPC %-12s served with %q client-side state\n", row.PeerID, row.Mode)
		}
	}
}
