package htmlx

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pricesheriff/internal/shop"
)

// referenceParse is the tree builder Parse replaced: one heap node per
// token, children grown by append, attributes owned by each token. Parse
// must produce the same tree out of its slabs.
func referenceParse(src string) *Node {
	doc := &Node{Type: DocumentNode}
	stack := []*Node{doc}
	top := func() *Node { return stack[len(stack)-1] }

	z := NewTokenizer(src)
	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		switch tok.Type {
		case TextToken:
			if tok.Data == "" {
				continue
			}
			top().Children = append(top().Children, &Node{
				Type: TextNode, Text: tok.Data, Parent: top(),
			})
		case CommentToken:
			top().Children = append(top().Children, &Node{
				Type: CommentNode, Text: tok.Data, Parent: top(),
			})
		case SelfClosingTagToken:
			el := &Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs, Parent: top()}
			top().Children = append(top().Children, el)
		case StartTagToken:
			if closes, ok := impliedEnd[tok.Data]; ok {
				for _, c := range closes {
					if top().Tag == c {
						stack = stack[:len(stack)-1]
						break
					}
				}
			}
			el := &Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs, Parent: top()}
			top().Children = append(top().Children, el)
			if !voidTags[tok.Data] {
				stack = append(stack, el)
			}
		case EndTagToken:
			for i := len(stack) - 1; i > 0; i-- {
				if stack[i].Tag == tok.Data {
					stack = stack[:i]
					break
				}
			}
		}
	}
	return doc
}

// sameTree walks got and want together and reports the first structural
// difference: node fields, attribute lists (nil stays nil), parent links,
// child order, and that no Children window has room to append into.
func sameTree(t *testing.T, src string, got, want, gotParent *Node) bool {
	t.Helper()
	if got.Type != want.Type || got.Tag != want.Tag || got.Text != want.Text {
		t.Errorf("parse %q: node %v/%q/%q, reference %v/%q/%q", src, got.Type, got.Tag, got.Text, want.Type, want.Tag, want.Text)
		return false
	}
	if !reflect.DeepEqual(got.Attrs, want.Attrs) {
		t.Errorf("parse %q: <%s> attrs %#v, reference %#v", src, got.Tag, got.Attrs, want.Attrs)
		return false
	}
	if got.Parent != gotParent {
		t.Errorf("parse %q: <%s> parent link does not point at the node that lists it", src, got.Tag)
		return false
	}
	if len(got.Children) != cap(got.Children) || len(got.Attrs) != cap(got.Attrs) {
		t.Errorf("parse %q: <%s> children len %d cap %d, attrs len %d cap %d: a window with spare capacity lets an append reach a neighbour",
			src, got.Tag, len(got.Children), cap(got.Children), len(got.Attrs), cap(got.Attrs))
		return false
	}
	if (got.Children == nil) != (want.Children == nil) || len(got.Children) != len(want.Children) {
		t.Errorf("parse %q: <%s> has %d children, reference %d", src, got.Tag, len(got.Children), len(want.Children))
		return false
	}
	for i := range got.Children {
		if !sameTree(t, src, got.Children[i], want.Children[i], got) {
			return false
		}
	}
	return true
}

// mallPages renders product pages the way the measurement path meets
// them: every layout variant of renderPage (banner and promo lines on and
// off) as seen from two countries, over a few shops of the synthetic mall.
func mallPages(t testing.TB) []string {
	t.Helper()
	m := shop.NewMall(shop.MallConfig{Seed: 5, NumDomains: 20, NumLocationPD: 5, NumAlexa: 5})
	rng := rand.New(rand.NewSource(1))
	var pages []string
	for _, domain := range m.Domains()[:6] {
		s, _ := m.Shop(domain)
		url := s.ProductURL(s.Products()[0].SKU)
		for _, country := range []string{"US", "ES"} {
			ip, ok := m.World.RandomIP(rng, country, "")
			if !ok {
				t.Fatalf("no IP block for %s", country)
			}
			for _, nonce := range []uint64{2, 0, 1, 6} { // plain, banner, promo, both
				resp := m.Fetch(&shop.FetchRequest{URL: url, IP: ip.String(), Nonce: nonce})
				if resp.Status != 200 {
					t.Fatalf("fetch %s from %s: status %d", url, country, resp.Status)
				}
				pages = append(pages, resp.HTML)
			}
		}
	}
	return pages
}

func TestParseMatchesReference(t *testing.T) {
	// FuzzParse holds its seeds and the checked-in corpus to the same
	// comparison on every plain `go test`.
	inputs := append([]string{paperExample}, mallPages(t)...)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		inputs = append(inputs, mutatePage(rng, i%3))
	}
	// Shapes the slab arithmetic has to get right: a deep chain (the open-
	// element stack outgrows its inline buffer), a tag with more attributes
	// than the tokenizer's inline scratch, an end tag that carries
	// attributes, entities in text and attribute values, an empty document.
	inputs = append(inputs,
		strings.Repeat("<div>", 80)+"x"+strings.Repeat("</div>", 80),
		`<a a1=1 a2=2 a3=3 a4=4 a5=5 a6=6 a7=7 a8=8 a9=9 a10=10 a11=11>t</a><b x=1>`,
		`<div class="a">x</div class="b" id="c"><p q=1>`,
		`<p title="a &amp; b">1 &lt; 2 &#x41;</p>`,
		``, `<!doctype html>`, `just text`,
	)
	for _, src := range inputs {
		got, want := Parse(src), referenceParse(src)
		if !sameTree(t, src, got, want, nil) {
			continue
		}
		if g, w := Render(got), Render(want); g != w {
			t.Errorf("parse %q: renders %q, reference %q", src, g, w)
		}
	}
}

// TestTokenizerTokensDoNotAlias: Parse reuses one attribute buffer across
// tokens internally; tokens handed out by the public Tokenizer must each
// own their Attrs.
func TestTokenizerTokensDoNotAlias(t *testing.T) {
	src := `<a x=1 y=2><b x=3 y=4 z=5/><c x=6></c><d x=7 y=8>`
	var toks []Token
	var want [][]Attr
	z := NewTokenizer(src)
	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		toks = append(toks, tok)
		want = append(want, append([]Attr(nil), tok.Attrs...))
	}
	seen := map[*Attr]int{}
	for i, tok := range toks {
		if !reflect.DeepEqual(tok.Attrs, want[i]) {
			t.Errorf("token %d <%s>: attrs %v after later tokens were read, were %v", i, tok.Data, tok.Attrs, want[i])
		}
		for j := range tok.Attrs[:cap(tok.Attrs)] {
			if prev, dup := seen[&tok.Attrs[:cap(tok.Attrs)][j]]; dup {
				t.Errorf("tokens %d and %d share attribute storage", prev, i)
			}
			seen[&tok.Attrs[:cap(tok.Attrs)][j]] = i
		}
	}
	if len(seen) == 0 {
		t.Fatal("no attributes tokenized")
	}
}

// TestCacheCollisionIsAMiss: an entry found under a page's hash but parsed
// from other bytes must not answer for it.
func TestCacheCollisionIsAMiss(t *testing.T) {
	c := NewCache(0, 0)
	const other = `<html><body><span class="price">$1</span></body></html>`
	c.docs.put(c.key("shop.example", paperExample), cachedDoc{src: other, doc: Parse(other)})
	doc := c.Parse("shop.example", paperExample)
	if got := doc.FindByClass("price")[0].InnerText(); got != "$10.00" {
		t.Errorf("colliding entry answered: price %q, want $10.00", got)
	}
	if s := c.Stats(); s.DocHits != 0 || s.DocMisses != 1 {
		t.Errorf("stats = %+v, want 0 hits / 1 miss", s)
	}
	if c.Parse("shop.example", paperExample) != doc {
		t.Error("the page's own tree must replace the colliding entry")
	}
}

func BenchmarkParseMallPage(b *testing.B) {
	page := mallPages(b)[0]
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(page)
	}
}
