//go:build !race

// Allocation-regression tests for the parse/locate cache hit path.
// Excluded under -race: the race runtime's bookkeeping breaks
// AllocsPerRun counts.

package htmlx

import "testing"

// TestCacheHitPathZeroAlloc: once a store's template and tier are cached,
// serving a vantage answer must not allocate — neither the content-hash
// lookup nor the tier-hinted locate.
func TestCacheHitPathZeroAlloc(t *testing.T) {
	c := NewCache(0, 0)
	doc := c.Parse("shop.example", paperExample)
	path, err := BuildTagsPath(doc.FindByClass("price")[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Locate("shop.example", path, doc); err != nil {
		t.Fatal(err) // warm the tier memo
	}

	parseAllocs := testing.AllocsPerRun(100, func() {
		if c.Parse("shop.example", paperExample) != doc {
			t.Fatal("cache miss on warmed page")
		}
	})
	if parseAllocs != 0 {
		t.Errorf("cached Parse allocates %.1f times, want 0", parseAllocs)
	}

	locateAllocs := testing.AllocsPerRun(100, func() {
		n, err := c.Locate("shop.example", path, doc)
		if err != nil || n == nil {
			t.Fatal("locate failed on warmed path")
		}
	})
	if locateAllocs != 0 {
		t.Errorf("tier-hinted Locate allocates %.1f times, want 0", locateAllocs)
	}
}

// TestParseMallPageAllocs: a parse is its three slabs plus the document's
// own needs (entity-decoded strings, an attribute list past the inline
// scratch), not an allocation per node.
func TestParseMallPageAllocs(t *testing.T) {
	page := mallPages(t)[0]
	allocs := testing.AllocsPerRun(100, func() { Parse(page) })
	if allocs > 12 {
		t.Errorf("Parse of a %d-byte mall page allocates %.1f times, want <= 12", len(page), allocs)
	}
}
