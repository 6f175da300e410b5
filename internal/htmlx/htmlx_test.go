package htmlx

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const paperExample = `<!DOCTYPE html>
<head>
  <title>Hi there</title>
</head>
<body>
  This is a simple web page
  <div class="product">
    Here is the product image
    <img src="product.jpg" alt="Product View" style="width:304px;height:228px;">
    <span class="price">$10.00</span>
  </div>
</body>
</html>`

func TestTokenizerBasics(t *testing.T) {
	z := NewTokenizer(`<div class="a" id=b>hi</div>`)
	tok, ok := z.Next()
	if !ok || tok.Type != StartTagToken || tok.Data != "div" {
		t.Fatalf("want start div, got %+v ok=%v", tok, ok)
	}
	if v, ok := tok.Attr("class"); !ok || v != "a" {
		t.Errorf("class attr = %q, %v", v, ok)
	}
	if v, ok := tok.Attr("id"); !ok || v != "b" {
		t.Errorf("id attr = %q, %v", v, ok)
	}
	tok, _ = z.Next()
	if tok.Type != TextToken || tok.Data != "hi" {
		t.Errorf("want text hi, got %+v", tok)
	}
	tok, _ = z.Next()
	if tok.Type != EndTagToken || tok.Data != "div" {
		t.Errorf("want end div, got %+v", tok)
	}
	if _, ok := z.Next(); ok {
		t.Error("want EOF")
	}
}

func TestTokenizerSelfClosingAndComment(t *testing.T) {
	z := NewTokenizer(`<br/><!-- note --><img src="x">`)
	tok, _ := z.Next()
	if tok.Type != SelfClosingTagToken || tok.Data != "br" {
		t.Errorf("want self-closing br, got %+v", tok)
	}
	tok, _ = z.Next()
	if tok.Type != CommentToken || tok.Data != " note " {
		t.Errorf("want comment, got %+v", tok)
	}
	tok, _ = z.Next()
	if tok.Type != StartTagToken || tok.Data != "img" {
		t.Errorf("want img, got %+v", tok)
	}
}

func TestTokenizerScriptRawText(t *testing.T) {
	z := NewTokenizer(`<script>if (a < b) { x("<div>"); }</script><p>after</p>`)
	tok, _ := z.Next()
	if tok.Type != StartTagToken || tok.Data != "script" {
		t.Fatalf("want script start, got %+v", tok)
	}
	tok, _ = z.Next()
	if tok.Type != TextToken || !strings.Contains(tok.Data, `x("<div>")`) {
		t.Fatalf("script body not raw: %+v", tok)
	}
	tok, _ = z.Next()
	if tok.Type != EndTagToken || tok.Data != "script" {
		t.Fatalf("want script end, got %+v", tok)
	}
	tok, _ = z.Next()
	if tok.Type != StartTagToken || tok.Data != "p" {
		t.Fatalf("want p, got %+v", tok)
	}
}

func TestTokenizerStrayAngles(t *testing.T) {
	z := NewTokenizer(`a < b and <> c`)
	var texts []string
	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		if tok.Type != TextToken {
			t.Fatalf("unexpected non-text token %+v", tok)
		}
		texts = append(texts, tok.Data)
	}
	joined := strings.Join(texts, "")
	if joined != "a < b and <> c" {
		t.Errorf("lossless text = %q", joined)
	}
}

func TestParsePaperExample(t *testing.T) {
	doc := Parse(paperExample)
	spans := doc.FindByClass("price")
	if len(spans) != 1 {
		t.Fatalf("want 1 price span, got %d", len(spans))
	}
	if got := spans[0].InnerText(); got != "$10.00" {
		t.Errorf("price text = %q", got)
	}
	if spans[0].Parent.Tag != "div" || spans[0].Parent.Class() != "product" {
		t.Errorf("parent = %q class %q", spans[0].Parent.Tag, spans[0].Parent.Class())
	}
}

func TestParseVoidAndImpliedEnd(t *testing.T) {
	doc := Parse(`<ul><li>one<li>two<li>three</ul><p>a<p>b`)
	lis := doc.FindByTag("li")
	if len(lis) != 3 {
		t.Fatalf("want 3 li, got %d", len(lis))
	}
	for i, want := range []string{"one", "two", "three"} {
		if got := lis[i].InnerText(); got != want {
			t.Errorf("li[%d] = %q, want %q", i, got, want)
		}
	}
	ps := doc.FindByTag("p")
	if len(ps) != 2 || ps[0].InnerText() != "a" || ps[1].InnerText() != "b" {
		t.Errorf("p parse wrong: %d nodes", len(ps))
	}
}

func TestParseStrayEndTag(t *testing.T) {
	doc := Parse(`<div>x</span>y</div>`)
	divs := doc.FindByTag("div")
	if len(divs) != 1 {
		t.Fatalf("want 1 div, got %d", len(divs))
	}
	if got := divs[0].InnerText(); got != "xy" {
		t.Errorf("text = %q", got)
	}
}

func TestInnerTextSkipsScript(t *testing.T) {
	doc := Parse(`<div>a<script>var x=1;</script>b</div>`)
	if got := doc.FindByTag("div")[0].InnerText(); got != "ab" {
		t.Errorf("text = %q", got)
	}
}

func TestRenderRoundTrip(t *testing.T) {
	doc := Parse(paperExample)
	re := Parse(Render(doc))
	a := doc.FindByClass("price")
	b := re.FindByClass("price")
	if len(a) != 1 || len(b) != 1 || a[0].InnerText() != b[0].InnerText() {
		t.Fatal("render/parse round trip lost the price node")
	}
}

func TestBuildTagsPathPaperExample(t *testing.T) {
	doc := Parse(paperExample)
	price := doc.FindByClass("price")[0]
	path, err := BuildTagsPath(price)
	if err != nil {
		t.Fatal(err)
	}
	s := path.String()
	if !strings.HasPrefix(s, "Bottom, ") {
		t.Errorf("display form = %q", s)
	}
	if !strings.Contains(s, `<span class="price">`) {
		t.Errorf("display form missing final tag: %q", s)
	}
	got, err := path.Locate(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got != price {
		t.Error("Locate on same doc did not return the original node")
	}
}

func TestBuildTagsPathRejectsNonElement(t *testing.T) {
	if _, err := BuildTagsPath(nil); err == nil {
		t.Error("want error for nil target")
	}
	doc := Parse("plain text")
	if _, err := BuildTagsPath(doc); err == nil {
		t.Error("want error for document node")
	}
}

func TestLocateAcrossVariants(t *testing.T) {
	// Page as fetched by the initiator.
	orig := Parse(`<html><body><div class="hero">ad</div><div class="product"><span class="label">Camera</span><span class="price">EUR654</span></div></body></html>`)
	price := orig.FindByClass("price")[0]
	path, err := BuildTagsPath(price)
	if err != nil {
		t.Fatal(err)
	}

	// Variant 1: same structure, different price text (another country).
	v1 := Parse(`<html><body><div class="hero">ad</div><div class="product"><span class="label">Camera</span><span class="price">$699</span></div></body></html>`)
	n, err := path.Locate(v1)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.InnerText(); got != "$699" {
		t.Errorf("variant1 price = %q", got)
	}

	// Variant 2: an extra ad div shifts sibling positions.
	v2 := Parse(`<html><body><div class="hero">ad</div><div class="promo">sale!</div><div class="product"><span class="label">Camera</span><span class="price">CAD912</span></div></body></html>`)
	n, err = path.Locate(v2)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.InnerText(); got != "CAD912" {
		t.Errorf("variant2 price = %q", got)
	}

	// Variant 3: restructured page; only the fingerprint (span.price)
	// survives.
	v3 := Parse(`<html><body><table><tr><td><span class="price">ILS2,963</span></td></tr></table></body></html>`)
	n, err = path.Locate(v3)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.InnerText(); got != "ILS2,963" {
		t.Errorf("variant3 price = %q", got)
	}
}

func TestLocateFailure(t *testing.T) {
	orig := Parse(`<html><body><span class="price">$1</span></body></html>`)
	path, _ := BuildTagsPath(orig.FindByClass("price")[0])
	other := Parse(`<html><body><p>nothing here</p></body></html>`)
	if _, err := path.Locate(other); err != ErrNotLocated {
		t.Errorf("want ErrNotLocated, got %v", err)
	}
	var empty TagsPath
	if _, err := empty.Locate(orig); err != ErrNotLocated {
		t.Errorf("empty path: want ErrNotLocated, got %v", err)
	}
}

func TestLocateMultipleSameTagSiblings(t *testing.T) {
	doc := Parse(`<html><body><div><span class="price">$1</span><span class="price">$2</span><span class="price">$3</span></div></body></html>`)
	prices := doc.FindByClass("price")
	if len(prices) != 3 {
		t.Fatalf("want 3 price spans, got %d", len(prices))
	}
	// The path to the middle span must relocate the middle span, not the
	// first: the index among same-tag siblings disambiguates (paper
	// Sect. 3.3, "multiple product prices").
	path, _ := BuildTagsPath(prices[1])
	n, err := path.Locate(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.InnerText(); got != "$2" {
		t.Errorf("located %q, want $2", got)
	}
}

// Property: for a randomly generated page, a Tags Path built for any element
// relocates exactly that element in the same document.
func TestTagsPathRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func() string {
		var b strings.Builder
		b.WriteString("<html><body>")
		var emit func(depth int)
		tags := []string{"div", "span", "p", "section"}
		emit = func(depth int) {
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				tag := tags[rng.Intn(len(tags))]
				b.WriteString("<" + tag + ">")
				if depth < 3 && rng.Intn(2) == 0 {
					emit(depth + 1)
				} else {
					b.WriteString("x")
				}
				b.WriteString("</" + tag + ">")
			}
		}
		emit(0)
		b.WriteString("</body></html>")
		return b.String()
	}
	for trial := 0; trial < 50; trial++ {
		doc := Parse(gen())
		all := doc.FindAll(func(*Node) bool { return true })
		target := all[rng.Intn(len(all))]
		path, err := BuildTagsPath(target)
		if err != nil {
			t.Fatal(err)
		}
		got, err := path.Locate(doc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != target {
			t.Fatalf("trial %d: located wrong node", trial)
		}
	}
}

// Property: Parse never panics and the text content of parse∘render∘parse is
// stable for arbitrary input strings.
func TestParseTotalityProperty(t *testing.T) {
	f := func(s string) bool {
		doc := Parse(s)
		re := Parse(Render(doc))
		return doc.InnerText() == re.InnerText()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkParseProductPage(b *testing.B) {
	// A page on the order of a real product page.
	var sb strings.Builder
	sb.WriteString("<html><head><title>p</title></head><body>")
	for i := 0; i < 200; i++ {
		sb.WriteString(`<div class="item"><span class="label">thing</span><span class="price">$9.99</span></div>`)
	}
	sb.WriteString("</body></html>")
	page := sb.String()
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(page)
	}
}

func BenchmarkLocate(b *testing.B) {
	doc := Parse(paperExample)
	price := doc.FindByClass("price")[0]
	path, _ := BuildTagsPath(price)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := path.Locate(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTagsPathFingerprint(t *testing.T) {
	page := func(banner string) TagsPath {
		doc := Parse(`<html><body>` + banner + `<div class="product" id="p-1"><span class="was">9</span><span class="price">8</span></div></body></html>`)
		path, err := BuildTagsPath(doc.QueryOne(".product .price"))
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	plain, shifted := page(""), page(`<div class="banner">sale</div>`)
	if plain.Steps[2].Index == shifted.Steps[2].Index {
		t.Fatal("the banner did not move the product block's index")
	}
	if plain.Fingerprint() != shifted.Fingerprint() {
		t.Error("a banner above a block that carries an id changed the fingerprint")
	}
	// Without an id the index is all that tells same-tag siblings apart.
	other := plain
	other.Steps = append([]Step(nil), plain.Steps...)
	other.Steps[3].Index = 0 // the "was" span: same tag, no id
	if other.Fingerprint() == plain.Fingerprint() {
		t.Error("paths to two sibling spans share a fingerprint")
	}
	noID := plain
	noID.Steps = append([]Step(nil), plain.Steps...)
	noID.Steps[2].ID = ""
	moved := noID
	moved.Steps = append([]Step(nil), noID.Steps...)
	moved.Steps[2].Index++
	if noID.Fingerprint() == moved.Fingerprint() || noID.Fingerprint() == plain.Fingerprint() {
		t.Error("the index of a step without an id, or the id itself, is not in the fingerprint")
	}
	if (TagsPath{}).Fingerprint() == plain.Fingerprint() {
		t.Error("empty path collides")
	}
}
