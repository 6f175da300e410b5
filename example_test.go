package pricesheriff_test

import (
	"context"
	"fmt"
	"log"

	pricesheriff "pricesheriff"
)

// Example boots a small deployment, registers four Spanish peers, runs one
// price check through the full five-step protocol, and prints the result
// page. (No fixed Output: prices depend on the seeded world.)
func Example() {
	mall := pricesheriff.NewMall(pricesheriff.MallConfig{
		Seed: 42, NumDomains: 60, NumLocationPD: 20, NumAlexa: 10,
	})
	sys, err := pricesheriff.New(pricesheriff.Config{Mall: mall, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	for i := 0; i < 4; i++ {
		if _, err := sys.AddUser(fmt.Sprintf("user-%d", i), "ES", ""); err != nil {
			log.Fatal(err)
		}
	}
	shop, _ := mall.Shop("steampowered.com")
	res, err := sys.PriceCheckContext(context.Background(), "user-0", shop.ProductURL(shop.Products()[0].SKU))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(pricesheriff.FormatResult(res))
}
