package core

import (
	"context"
	"testing"
	"time"

	"pricesheriff/internal/shop"
	"pricesheriff/internal/transport"
)

// The whole deployment over real TCP sockets — what cmd/sheriffd runs.
func TestSystemOverTCP(t *testing.T) {
	mall := shop.NewMall(shop.MallConfig{Seed: 13, NumDomains: 30, NumLocationPD: 10, NumAlexa: 5})
	sys, err := NewSystem(Config{
		Fabric:             transport.TCP{},
		Mall:               mall,
		MeasurementServers: 1,
		IPCCountries:       []string{"ES", "US", "JP"},
		PPCTimeout:         10 * time.Second,
		Seed:               13,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	for i := 0; i < 3; i++ {
		if _, err := sys.AddUser([]string{"tcp-a", "tcp-b", "tcp-c"}[i], "ES", ""); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := mall.Shop("steampowered.com")
	res, err := sys.PriceCheckContext(context.Background(), "tcp-a", s.ProductURL(s.Products()[0].SKU))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1+3+2 { // You + 3 IPCs + 2 PPCs
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Err != "" {
			t.Errorf("row %s: %s", r.Source, r.Err)
		}
	}
	// All component addresses are real TCP endpoints.
	for name, addr := range map[string]string{
		"shops": sys.ShopAddr(), "coord": sys.CoordAddr(),
		"broker": sys.BrokerAddr(), "db": sys.DBAddr(),
	} {
		if addr == "" {
			t.Errorf("%s address empty", name)
		}
	}
}
