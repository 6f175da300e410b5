package pricesheriff_test

import (
	"context"
	"strings"
	"testing"
	"time"

	pricesheriff "pricesheriff"
)

// The facade must expose everything a downstream user needs for the
// quickstart flow without touching internal packages.
func TestFacadeQuickstartFlow(t *testing.T) {
	mall := pricesheriff.NewMall(pricesheriff.MallConfig{
		Seed: 77, NumDomains: 40, NumLocationPD: 12, NumAlexa: 5,
	})
	sys, err := pricesheriff.New(pricesheriff.Config{
		Mall: mall, Seed: 77, PPCTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	var users []*pricesheriff.User
	for _, id := range []string{"a", "b", "c"} {
		u, err := sys.AddUser(id, "ES", "")
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, u)
	}
	if len(users) != 3 {
		t.Fatal("users")
	}

	shop, ok := mall.Shop("steampowered.com")
	if !ok {
		t.Fatal("no steampowered.com")
	}
	res, err := sys.PriceCheckContext(context.Background(), "a", shop.ProductURL(shop.Products()[0].SKU))
	if err != nil {
		t.Fatal(err)
	}
	var rows []pricesheriff.ResultRow = res.Rows
	if len(rows) < 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	text := pricesheriff.FormatResult(res)
	if !strings.Contains(text, "You") {
		t.Errorf("formatted result:\n%s", text)
	}

	// SelectPrice works on raw page HTML.
	page := `<html><body><div class="product"><span class="price">EUR9</span></div></body></html>`
	path, err := pricesheriff.SelectPrice(page)
	if err != nil || path.Depth() == 0 {
		t.Errorf("SelectPrice: %v depth=%d", err, path.Depth())
	}
}
