// Quickstart: boot a small Price $heriff deployment, register a handful
// of peers in Spain, and run one price check end to end — the user
// highlights a price, the Coordinator assigns a Measurement server, the
// page is fetched simultaneously from the 30-country IPC fleet and from
// the other Spanish peers, and the result page shows every vantage
// point's price converted to EUR (the paper's Fig. 2).
package main

import (
	"context"
	"fmt"
	"log"

	pricesheriff "pricesheriff"
)

func main() {
	log.SetFlags(0)

	// A small e-commerce world: named case-study retailers plus a generic
	// population. Seeded, so runs are reproducible.
	mall := pricesheriff.NewMall(pricesheriff.MallConfig{
		Seed: 42, NumDomains: 60, NumLocationPD: 20, NumAlexa: 10,
	})
	sys, err := pricesheriff.New(pricesheriff.Config{Mall: mall, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Four users in Spain: one initiator, three peer proxies.
	for i := 0; i < 4; i++ {
		if _, err := sys.AddUser(fmt.Sprintf("user-%d", i), "ES", ""); err != nil {
			log.Fatal(err)
		}
	}

	// Check a camera retailer known for cross-border price differences.
	shop, _ := mall.Shop("digitalrev.com")
	url := shop.ProductURL(shop.Products()[0].SKU)
	fmt.Printf("price-checking %s\n\n", url)

	res, err := sys.PriceCheckContext(context.Background(), "user-0", url)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(pricesheriff.FormatResult(res))

	// Quick read of the spread.
	var lo, hi float64
	for _, row := range res.Rows {
		if row.Err != "" {
			continue
		}
		if lo == 0 || row.Converted < lo {
			lo = row.Converted
		}
		if row.Converted > hi {
			hi = row.Converted
		}
	}
	fmt.Printf("\nspread: EUR %.2f – %.2f (×%.2f between cheapest and most expensive vantage point)\n",
		lo, hi, hi/lo)
}
