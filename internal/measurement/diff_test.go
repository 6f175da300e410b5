package measurement

import (
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"pricesheriff/internal/shop"
)

// referenceDiff is the Diff this package shipped before it trimmed the
// common prefix and suffix: the full (n+1)·(m+1) table over every line. It
// is the yardstick for optimality — a script may order its ops differently,
// but it may not copy fewer base lines.
func referenceDiff(base, other string) []string {
	a := strings.Split(base, "\n")
	b := strings.Split(other, "\n")
	n, m := len(a), len(b)
	lcs := make([][]int32, n+1)
	for i := range lcs {
		lcs[i] = make([]int32, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	var script []string
	flushCopy := func(k int) {
		if k > 0 {
			script = append(script, "="+strconv.Itoa(k))
		}
	}
	flushSkip := func(k int) {
		if k > 0 {
			script = append(script, "-"+strconv.Itoa(k))
		}
	}
	i, j := 0, 0
	copyRun, skipRun := 0, 0
	for i < n && j < m {
		switch {
		case a[i] == b[j]:
			flushSkip(skipRun)
			skipRun = 0
			copyRun++
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			flushCopy(copyRun)
			copyRun = 0
			skipRun++
			i++
		default:
			flushCopy(copyRun)
			copyRun = 0
			flushSkip(skipRun)
			skipRun = 0
			script = append(script, "+"+b[j])
			j++
		}
	}
	flushCopy(copyRun)
	flushSkip(skipRun)
	if i < n {
		script = append(script, "-"+strconv.Itoa(n-i))
	}
	for ; j < m; j++ {
		script = append(script, "+"+b[j])
	}
	return script
}

// copied sums the base lines a script copies.
func copied(t testing.TB, script []string) int {
	t.Helper()
	total := 0
	for _, op := range script {
		if op[0] == '=' {
			k, err := strconv.Atoi(op[1:])
			if err != nil {
				t.Fatalf("bad copy op %q", op)
			}
			total += k
		}
	}
	return total
}

// checkDiff holds Diff to its contract on one pair: the script restores
// other and copies as many base lines as the reference.
func checkDiff(t testing.TB, base, other string) {
	t.Helper()
	script := Diff(base, other)
	got, err := Apply(base, script)
	if err != nil {
		t.Fatalf("Diff(%q, %q) = %q: apply: %v", base, other, script, err)
	}
	if got != other {
		t.Fatalf("Diff(%q, %q) = %q restores %q", base, other, script, got)
	}
	if c, ref := copied(t, script), copied(t, referenceDiff(base, other)); c != ref {
		t.Fatalf("Diff(%q, %q) = %q copies %d base lines, the full-table script %d", base, other, script, c, ref)
	}
}

// diffSeeds are FuzzDiffApply's seed pairs, which every plain `go test`
// runs through checkDiff as well: shared prefixes and suffixes, one side
// running out inside them, repeated lines, identical and empty inputs.
var diffSeeds = [][2]string{
	{"a\nb\nc", "a\nX\nc"},
	{"", ""},
	{"single", "single\nmore"},
	{"<html>\n<body>\n</html>", "<html>\n<div>\n</html>"},
	{"a\nb\nc", "a\nb\nc"},
	{"a\nb\nc\n", "a\nb\nc\n"},
	{"x\nx", "x"},
	{"x", "x\nx"},
	{"p\nq\nr", "p\nr"},
	{"q\nr", "r\ns\nr"},
	{"a\nb\nc\nd\ne", "a\nb\nX\nY\ne"},
	{"a\nb", "c\nd"},
	{"\n\n\n", "\n\n"},
	{"head\nsame\nsame\nsame\ntail", "head\nsame\nsame\ntail"},
	{"a\nb\nc", "c\nb\na"},
	{"", "a\nb"},
	{"a\nb", ""},
}

// mallPages renders one product of a few mall shops in every layout
// variant of the page template (banner and promo lines on and off) as seen
// from two countries — the copies one check diffs against each other.
func mallPages(t testing.TB) [][]string {
	t.Helper()
	m := shop.NewMall(shop.MallConfig{Seed: 5, NumDomains: 20, NumLocationPD: 5, NumAlexa: 5})
	rng := rand.New(rand.NewSource(1))
	var byShop [][]string
	for _, domain := range m.Domains()[:6] {
		s, _ := m.Shop(domain)
		url := s.ProductURL(s.Products()[0].SKU)
		var pages []string
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
		byShop = append(byShop, pages)
	}
	return byShop
}

func TestDiffMatchesReference(t *testing.T) {
	for _, pages := range mallPages(t) {
		for _, base := range pages {
			for _, other := range pages {
				checkDiff(t, base, other)
			}
		}
	}
	// Documents over a three-line alphabet: repeats make the alignment
	// ambiguous, which is where a trimmed table could lose a match.
	doc := func(picks []uint8) string {
		lines := make([]string, len(picks))
		for i, p := range picks {
			lines[i] = string(rune('a' + p%3))
		}
		return strings.Join(lines, "\n")
	}
	if err := quick.Check(func(a, b []uint8) bool {
		checkDiff(t, doc(a), doc(b))
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a, b string) bool {
		checkDiff(t, a, b)
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDiffTableIsBounded: one large or hostile page must not cost a
// quadratic table per vantage. 20,000 lines with every second one changed
// would be a 1.6 GB table; past maxDiffCells the middle is stored literally
// and still round-trips.
func TestDiffTableIsBounded(t *testing.T) {
	const lines = 20000
	var a, b strings.Builder
	for i := 0; i < lines; i++ {
		a.WriteString("line " + strconv.Itoa(i) + "\n")
		if i%2 == 1 {
			b.WriteString("changed " + strconv.Itoa(i) + "\n")
		} else {
			b.WriteString("line " + strconv.Itoa(i) + "\n")
		}
	}
	base, other := a.String(), b.String()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	script := Diff(base, other)
	runtime.ReadMemStats(&after)
	const ceiling = 16 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("Diff of two %d-line pages allocated %d MiB, want <= %d MiB", lines, got>>20, ceiling>>20)
	}
	got, err := Apply(base, script)
	if err != nil || got != other {
		t.Fatalf("capped script does not restore the page (err %v)", err)
	}
	// The trim still applies: the first line and the trailing empty line
	// are copied, not stored.
	if c := copied(t, script); c != 2 {
		t.Errorf("capped script copies %d base lines, want the 2 outside the changed middle", c)
	}

	// Just under the cap the script is still the optimal one.
	n := 1000
	var c, d []string
	for i := 0; i < n; i++ {
		c = append(c, "k"+strconv.Itoa(i%7))
		d = append(d, "k"+strconv.Itoa(i%5))
	}
	c[0], d[0], c[n-1], d[n-1] = "c-first", "d-first", "c-last", "d-last" // nothing to trim
	checkDiff(t, strings.Join(c, "\n"), strings.Join(d, "\n"))
}

func BenchmarkDiff(b *testing.B) {
	pages := mallPages(b)[0]
	base, other := pages[0], pages[5] // other currency, banner line added
	lines := strings.Split(base, "\n")
	b.Run("full-table-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceDiff(base, other)
		}
	})
	b.Run("split-per-copy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Diff(base, other)
		}
	})
	b.Run("pre-split", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			diffLines(lines, other)
		}
	})
	b.Run("identical", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			diffLines(lines, base)
		}
	})
}
