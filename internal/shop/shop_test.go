package shop

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pricesheriff/internal/currency"
	"pricesheriff/internal/geo"
	"pricesheriff/internal/htmlx"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/tracker"
	"pricesheriff/internal/transport"
)

// smallMall builds a fast world for unit tests.
func smallMall() *Mall {
	return NewMall(MallConfig{Seed: 1, NumDomains: 60, NumLocationPD: 25, NumAlexa: 20, IncludePDIPD: true})
}

func testShop() *Shop {
	w := geo.NewWorld()
	s := New("test.com", "ES", w, currency.DefaultRates())
	s.AddProduct(&Product{SKU: "a", Name: "Widget", Category: "electronics", BasePrice: 100})
	s.AddProduct(&Product{SKU: "b", Name: "Gadget", Category: "electronics", BasePrice: 50})
	return s
}

func ipIn(t *testing.T, w *geo.World, country string) string {
	t.Helper()
	ip, ok := w.RandomIP(rand.New(rand.NewSource(42)), country, "")
	if !ok {
		t.Fatalf("no IP for %s", country)
	}
	return ip.String()
}

func TestParseProductURL(t *testing.T) {
	d, sku, err := ParseProductURL("http://shop.com/product/x1")
	if err != nil || d != "shop.com" || sku != "x1" {
		t.Errorf("parse = %s %s %v", d, sku, err)
	}
	if _, _, err := ParseProductURL("http://shop.com/cart"); err == nil {
		t.Error("non-product URL must fail")
	}
	if _, _, err := ParseProductURL("garbage"); err == nil {
		t.Error("garbage must fail")
	}
}

func TestFetchBasics(t *testing.T) {
	s := testShop()
	resp := s.Fetch(&FetchRequest{URL: s.ProductURL("a"), IP: ipIn(t, s.World, "ES"), Nonce: 1})
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if !strings.Contains(resp.HTML, `class="price"`) {
		t.Error("page has no price span")
	}
	if !strings.Contains(resp.HTML, "Widget") {
		t.Error("page missing product name")
	}
	// Unknown SKU and wrong domain.
	if s.Fetch(&FetchRequest{URL: s.ProductURL("zz")}).Status != 404 {
		t.Error("unknown SKU should 404")
	}
	if s.Fetch(&FetchRequest{URL: "http://other.com/product/a"}).Status != 404 {
		t.Error("other domain should 404")
	}
}

func TestFetchPriceExtractableViaDOM(t *testing.T) {
	s := testShop()
	resp := s.Fetch(&FetchRequest{URL: s.ProductURL("a"), IP: ipIn(t, s.World, "ES"), Nonce: 2})
	doc := htmlx.Parse(resp.HTML)
	product := doc.FindByClass("product")
	if len(product) != 1 {
		t.Fatalf("product divs = %d", len(product))
	}
	prices := product[0].FindByClass("price")
	if len(prices) != 1 {
		t.Fatalf("price spans in product div = %d", len(prices))
	}
	d, err := currency.Detect(prices[0].InnerText())
	if err != nil {
		t.Fatalf("detect %q: %v", prices[0].InnerText(), err)
	}
	// Seller currency is EUR (ES), base price 100, no strategies.
	if d.Code != "EUR" || math.Abs(d.Amount-100) > 0.01 {
		t.Errorf("price = %+v", d)
	}
	// The page carries multiple price spans overall (recommendations).
	if all := doc.FindByClass("price"); len(all) < 2 {
		t.Errorf("total price spans = %d, want recommendations too", len(all))
	}
}

func TestNotationStyles(t *testing.T) {
	s := testShop()
	cases := []struct {
		style NotationStyle
		code  string
		want  string
	}{
		{NotationISO, "USD", "USD123.45"},
		{NotationCustom, "USD", "US$123.45"},
		{NotationSymbol, "USD", "US$123.45"}, // ambiguous $ avoided
		{NotationSymbol, "EUR", "€123.45"},
		{NotationCustom, "CHF", "CHF123.45"}, // no custom entry -> ISO fallback
	}
	for _, c := range cases {
		s.Notation = c.style
		if got := s.FormatPrice(c.code, 123.45); got != c.want {
			t.Errorf("style %d code %s = %q, want %q", c.style, c.code, got, c.want)
		}
	}
	s.Notation = NotationISO
	if got := s.FormatPrice("JPY", 88204); got != "JPY88,204" {
		t.Errorf("JPY formatting = %q", got)
	}
}

func TestLocalizeCurrency(t *testing.T) {
	s := testShop()
	s.Localize = true
	resp := s.Fetch(&FetchRequest{URL: s.ProductURL("a"), IP: ipIn(t, s.World, "JP"), Nonce: 3})
	doc := htmlx.Parse(resp.HTML)
	text := doc.FindByClass("product")[0].FindByClass("price")[0].InnerText()
	d, err := currency.Detect(text)
	if err != nil {
		t.Fatal(err)
	}
	if d.Code != "JPY" {
		t.Errorf("JP visitor saw %s (%q)", d.Code, text)
	}
	// Converting back to EUR lands near the base price.
	eur, _ := currency.DefaultRates().Convert(d.Amount, "JPY", "EUR")
	if math.Abs(eur-100) > 1 {
		t.Errorf("JPY price converts to %v EUR", eur)
	}
}

func TestDeterministicPricing(t *testing.T) {
	s := testShop()
	s.Strategy = ABUniform{MinSpread: 0.03, MaxSpread: 0.07}
	req := &FetchRequest{URL: s.ProductURL("a"), IP: ipIn(t, s.World, "ES"), Nonce: 77}
	h1 := s.Fetch(req).HTML
	h2 := s.Fetch(req).HTML
	if h1 != h2 {
		t.Error("identical requests produced different pages")
	}
	req2 := &FetchRequest{URL: s.ProductURL("a"), IP: req.IP, Nonce: 78}
	if s.Fetch(req2).HTML == h1 {
		t.Error("different nonce should usually produce a different A/B price")
	}
}

func TestLocationFactorStrategy(t *testing.T) {
	s := testShop()
	s.Strategy = LocationFactor{Factors: map[string]float64{"US": 2, "JP": 0.5}, Default: 1}
	ctx := &Context{Product: s.Products()[0], Domain: s.Domain}
	ctx.Country = "US"
	if got := s.PriceFor(ctx); got != 200 {
		t.Errorf("US price = %v", got)
	}
	ctx.Country = "JP"
	if got := s.PriceFor(ctx); got != 50 {
		t.Errorf("JP price = %v", got)
	}
	ctx.Country = "ES"
	if got := s.PriceFor(ctx); got != 100 {
		t.Errorf("default price = %v", got)
	}
}

func TestVATStrategy(t *testing.T) {
	w := geo.NewWorld()
	vat := VAT{World: w, OnlyLoggedIn: true}
	p := &Product{Category: "electronics", BasePrice: 100}
	ctx := &Context{Product: p, Country: "ES"}
	if got := vat.Adjust(100, ctx); got != 100 {
		t.Errorf("guest price = %v", got)
	}
	ctx.LoggedIn = true
	if got := vat.Adjust(100, ctx); math.Abs(got-121) > 1e-9 {
		t.Errorf("ES logged-in electronics = %v, want 121", got)
	}
	ctx.Product = &Product{Category: "books", BasePrice: 100}
	if got := vat.Adjust(100, ctx); math.Abs(got-110) > 1e-9 {
		t.Errorf("ES books = %v, want 110", got)
	}
}

func TestABLevelsSticky(t *testing.T) {
	ab := ABLevels{Levels: []float64{0, 0.07}, Weights: []float64{0.8, 0.2}, Sticky: true}
	p := &Product{SKU: "x", BasePrice: 100}
	// Same visitor, different nonces: identical price.
	a := ab.Adjust(100, &Context{Product: p, Domain: "d", Sticky: "peer-1", Nonce: 1})
	b := ab.Adjust(100, &Context{Product: p, Domain: "d", Sticky: "peer-1", Nonce: 999})
	if a != b {
		t.Error("sticky A/B varied across requests for the same visitor")
	}
	// Across many visitors both levels appear with ~80/20 split.
	low, high := 0, 0
	for i := 0; i < 400; i++ {
		v := ab.Adjust(100, &Context{Product: p, Domain: "d", Sticky: string(rune('a'+i%26)) + itoa(i)})
		switch {
		case v == 100:
			low++
		case math.Abs(v-107) < 1e-9:
			high++
		default:
			t.Fatalf("unexpected level %v", v)
		}
	}
	frac := float64(high) / 400
	if frac < 0.1 || frac > 0.3 {
		t.Errorf("high bucket fraction = %v, want ≈0.2", frac)
	}
}

func TestABGate(t *testing.T) {
	gate := ABGate{Prob: 0.5, Inner: ABLevels{Levels: []float64{0.10}}}
	p0 := &Product{SKU: "p0", BasePrice: 100}
	active := 0
	n := 200
	for i := 0; i < n; i++ {
		prod := &Product{SKU: itoa(i), BasePrice: 100}
		v := gate.Adjust(100, &Context{Product: prod, Domain: "d", Day: 0})
		if v != 100 {
			active++
		}
	}
	if active < 70 || active > 130 {
		t.Errorf("gate activation = %d/200, want ≈100", active)
	}
	// Same product+day is consistently gated.
	v1 := gate.Adjust(100, &Context{Product: p0, Domain: "d", Day: 0.25})
	v2 := gate.Adjust(100, &Context{Product: p0, Domain: "d", Day: 0.75})
	if v1 != v2 {
		t.Error("gate flapped within one day")
	}
}

func TestDriftTrendAndJumps(t *testing.T) {
	d := Drift{PerDay: 0.01}
	p := &Product{SKU: "s", BasePrice: 100}
	v0 := d.Adjust(100, &Context{Product: p, Domain: "x", Day: 0})
	v10 := d.Adjust(100, &Context{Product: p, Domain: "x", Day: 10})
	if v10 <= v0 {
		t.Error("positive drift did not increase price")
	}
	if math.Abs(v10-100*math.Pow(1.01, 10)) > 1e-9 {
		t.Errorf("drift value = %v", v10)
	}
	// Jumps are persistent: once a jump happens the later price includes it.
	dj := Drift{JumpProb: 0.5, JumpFrac: 0.2}
	base := dj.Adjust(100, &Context{Product: p, Domain: "x", Day: 0})
	later := dj.Adjust(100, &Context{Product: p, Domain: "x", Day: 20})
	if base == later {
		t.Error("with p=0.5 over 20 days, a jump was expected")
	}
	// Deterministic per day.
	again := dj.Adjust(100, &Context{Product: p, Domain: "x", Day: 20})
	if later != again {
		t.Error("jump path not deterministic")
	}
}

func TestPDIPDStrategyAndTracker(t *testing.T) {
	tr := tracker.New("adnet.example")
	w := geo.NewWorld()
	s := New("pdipd.com", "US", w, currency.DefaultRates())
	s.Trackers = []*tracker.Tracker{tr}
	s.PDIPDSource = tr
	s.Strategy = PDIPD{Threshold: 3, Markup: 0.12}
	s.AddProduct(&Product{SKU: "cam", Name: "Camera", Category: "electronics", BasePrice: 500})

	ip := ipIn(t, w, "US")
	// A fresh visitor gets the base price and a tracker cookie.
	resp := s.Fetch(&FetchRequest{URL: s.ProductURL("cam"), IP: ip, Nonce: 1})
	cookie := resp.SetCookies["adnet.example"]
	if cookie == "" {
		t.Fatal("tracker cookie not set")
	}
	price := extractEUR(t, resp.HTML, s)
	if math.Abs(price-500) > 2 {
		t.Errorf("fresh visitor price = %v", price)
	}

	// Build interest: three more visits with the same cookie.
	cookies := map[string]string{"adnet.example": cookie}
	for i := 0; i < 3; i++ {
		s.Fetch(&FetchRequest{URL: s.ProductURL("cam"), IP: ip, Nonce: uint64(2 + i), Cookies: cookies})
	}
	resp = s.Fetch(&FetchRequest{URL: s.ProductURL("cam"), IP: ip, Nonce: 99, Cookies: cookies})
	price = extractEUR(t, resp.HTML, s)
	if math.Abs(price-560) > 2.5 {
		t.Errorf("interested visitor price = %v, want ≈560 (12%% markup)", price)
	}
}

func extractEUR(t *testing.T, html string, s *Shop) float64 {
	t.Helper()
	doc := htmlx.Parse(html)
	text := doc.FindByClass("product")[0].FindByClass("price")[0].InnerText()
	d, err := currency.Detect(text)
	if err != nil {
		t.Fatalf("detect %q: %v", text, err)
	}
	eur, ok := currency.DefaultRates().ConvertDetection(d, "EUR")
	if !ok {
		t.Fatalf("convert %q", text)
	}
	return eur
}

func TestMallConstruction(t *testing.T) {
	m := smallMall()
	if got := len(m.Domains()); got != 60+20+1 { // checked domains + alexa + pdipd validation
		t.Errorf("domains = %d", got)
	}
	if len(m.LocationPDDomains) != 25 {
		t.Errorf("location-PD domains = %d", len(m.LocationPDDomains))
	}
	if len(m.WithinCountryDomains) != 8 { // 3 case studies + 4 minor + pdipd
		t.Errorf("within-country domains = %v", m.WithinCountryDomains)
	}
	for _, d := range []string{"amazon.com", "jcpenney.com", "chegg.com", "steampowered.com", "digitalrev.com"} {
		if _, ok := m.Shop(d); !ok {
			t.Errorf("missing %s", d)
		}
	}
	if m.PDIPDDomain == "" {
		t.Error("PDI-PD validation shop missing")
	}
}

func TestMallPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale mall")
	}
	m := NewMall(MallConfig{Seed: 7})
	checked := 0
	for _, d := range m.Domains() {
		if !strings.HasPrefix(d, "alexa-") {
			checked++
		}
	}
	if checked != 1994 {
		t.Errorf("checked domains = %d, want 1994", checked)
	}
	if len(m.LocationPDDomains) != 76 {
		t.Errorf("location-PD = %d, want 76", len(m.LocationPDDomains))
	}
	if len(m.Alexa400) != 400 {
		t.Errorf("alexa = %d", len(m.Alexa400))
	}
}

func TestMallFetchRouting(t *testing.T) {
	m := smallMall()
	s, _ := m.Shop("amazon.com")
	sku := s.Products()[0].SKU
	resp := m.Fetch(&FetchRequest{URL: "http://amazon.com/product/" + sku, IP: ipIn(t, m.World, "ES"), Nonce: 1})
	if resp.Status != 200 {
		t.Errorf("status = %d", resp.Status)
	}
	if m.Fetch(&FetchRequest{URL: "http://nosuch.com/product/x"}).Status != 404 {
		t.Error("unknown domain should 404")
	}
	if m.Fetch(&FetchRequest{URL: "bogus"}).Status != 400 {
		t.Error("bad URL should 400")
	}
}

func TestAmazonVATWithinCountry(t *testing.T) {
	m := smallMall()
	s, _ := m.Shop("amazon.com")
	// VAT-inclusive display covers only the sold-by-amazon subset of the
	// catalog; find one such electronics product and check the ES rate.
	ip := ipIn(t, m.World, "ES")
	found := false
	for _, p := range s.Products() {
		if p.Category != "electronics" {
			continue
		}
		guest := s.Fetch(&FetchRequest{URL: s.ProductURL(p.SKU), IP: ip, Nonce: 1})
		logged := s.Fetch(&FetchRequest{URL: s.ProductURL(p.SKU), IP: ip, Nonce: 2, LoggedIn: true})
		ratio := extractEUR(t, logged.HTML, s) / extractEUR(t, guest.HTML, s)
		if math.Abs(ratio-1) < 1e-9 {
			continue // marketplace listing: no VAT display
		}
		found = true
		if math.Abs(ratio-1.21) > 0.01 {
			t.Errorf("logged/guest = %v, want ≈1.21 (ES VAT)", ratio)
		}
	}
	if !found {
		t.Skip("no sold-by-amazon electronics product in this catalog seed")
	}
}

func TestNetworkFetcher(t *testing.T) {
	// shop.fetch has a wire codec, so neither direction may fall back to a
	// JSON body.
	t.Run("binary", func(t *testing.T) {
		m := smallMall()
		reg := obs.NewRegistry()
		netw := transport.NewInproc()
		netw.Metrics = transport.NewMetrics(reg, "inproc")
		lis, _ := netw.Listen("")
		srv := NewServer(m, lis)
		go srv.Serve()
		defer srv.Close()

		f, err := DialFetcher(netw, srv.Addr(), 2)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		s, _ := m.Shop("chegg.com")
		req := FetchRequest{URL: s.ProductURL(s.Products()[0].SKU), IP: ipIn(t, m.World, "ES"), Nonce: 5,
			Cookies: map[string]string{"chegg.com": "sess-chegg.com-0000000000000001"}, UserAgent: "test/1.0", Day: 2, LoggedIn: true}
		resp, err := f.Fetch(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 || !strings.Contains(resp.HTML, "price") {
			t.Errorf("network fetch: status=%d", resp.Status)
		}
		// Local and network fetch agree byte for byte.
		local := m.Fetch(&req)
		if local.HTML != resp.HTML {
			t.Error("network and local fetch disagree")
		}
		if got, want := resp.SetCookies["chegg.com"], "sess-chegg.com-0000000000000001"; got != want {
			t.Errorf("session cookie over the network = %q, want the one sent (%q)", got, want)
		}
		if n := reg.Counter("sheriff_transport_wire_fallback_total", "fabric", "inproc", "reason", "json_body").Value(); n != 0 {
			t.Errorf("%d shop.fetch bodies rode JSON", n)
		}
	})
}

func BenchmarkFetchRender(b *testing.B) {
	m := smallMall()
	s, _ := m.Shop("jcpenney.com")
	url := s.ProductURL("jcp-fridge")
	ip, _ := m.World.RandomIP(rand.New(rand.NewSource(1)), "GB", "")
	req := &FetchRequest{URL: url, IP: ip.String(), Nonce: 9, Day: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Nonce = uint64(i)
		if resp := m.Fetch(req); resp.Status != 200 {
			b.Fatal("fetch failed")
		}
	}
}

func TestMallDeterministicAcrossBuilds(t *testing.T) {
	a := smallMall()
	b := smallMall()
	da, db := a.Domains(), b.Domains()
	if len(da) != len(db) {
		t.Fatalf("domain counts differ: %d vs %d", len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("domain %d differs: %s vs %s", i, da[i], db[i])
		}
	}
	// Same request against both worlds yields byte-identical pages.
	sa, _ := a.Shop("jcpenney.com")
	sb, _ := b.Shop("jcpenney.com")
	req := &FetchRequest{URL: sa.ProductURL("jcp-bag"), IP: "11.1.0.9", Nonce: 42, Day: 3}
	if sa.Fetch(req).HTML != sb.Fetch(req).HTML {
		t.Error("same seed produced different pages")
	}
}
