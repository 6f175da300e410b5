package htmlx

import (
	"testing"
)

// FuzzParse exercises the tokenizer and tree builder on arbitrary bytes:
// the watchdog parses pages served by parties it does not control, so
// Parse must be total — no panics, render/parse must preserve text, and
// the slab-built tree must equal the reference builder's node for node.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"<html><body><span class=\"price\">EUR654</span></body></html>",
		"<div><div><div>",
		"</span></div>",
		"<p <p <p>",
		"<script>while(1){if(a<b){}}</script>",
		"<!--",
		"<!doctype html><x y=\"",
		"plain < text > with & angles",
		"<a href='unterminated",
		"<ul><li>a<li>b<td>c<tr>d",
		string([]byte{0xff, 0xfe, '<', 'a', '>'}),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc := Parse(src)
		sameTree(t, src, doc, referenceParse(src), nil)
		re := Parse(Render(doc))
		if doc.InnerText() != re.InnerText() {
			t.Fatalf("render/parse text mismatch for %q", src)
		}
		// Building and resolving a path for every element must not panic.
		for _, n := range doc.FindAll(func(*Node) bool { return true }) {
			path, err := BuildTagsPath(n)
			if err != nil {
				t.Fatalf("BuildTagsPath: %v", err)
			}
			if got, err := path.Locate(doc); err != nil || got != n {
				t.Fatalf("Locate did not round trip for %q", src)
			}
		}
	})
}
