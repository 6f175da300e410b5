package measurement

import (
	"strings"
	"testing"
	"time"

	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/htmlx"
)

func TestRenderResultHTML(t *testing.T) {
	rows := []ResultRow{
		{Source: "You", Kind: "initiator", Converted: 654, Original: "EUR654", Confidence: "high"},
		{Source: "ipc-1", Kind: "ipc", Country: "US", City: "Tennessee", Converted: 617.65, Original: "$699", Confidence: "low"},
		{Source: "peer ES", Kind: "ppc", Country: "ES", City: "Madrid", Err: "request timed out"},
	}
	html := RenderResultHTML("job-1", "http://digitalrev.com/product/cam", "EUR", "", rows)

	// The page parses with our own DOM and contains the expected rows —
	// the watchdog's parser reading the watchdog's page.
	doc := htmlx.Parse(html)
	trs := doc.FindByTag("tr")
	if len(trs) != 4 { // header + 3 rows
		t.Fatalf("rows = %d", len(trs))
	}
	if got := doc.FindByClass("converted"); len(got) != 2 {
		t.Errorf("converted cells = %d", len(got))
	}
	// Low-confidence asterisk and its footnote (Fig. 2's annotation).
	if len(doc.FindByClass("low-confidence")) != 1 {
		t.Error("low-confidence mark missing")
	}
	if !strings.Contains(html, "confidence is low") {
		t.Error("footnote missing")
	}
	// The US row shows the EUR conversion of the paper's Fig. 2.
	if !strings.Contains(html, "EUR 617.65") {
		t.Error("converted value missing")
	}
	// Error rows render the error, not a price.
	if !strings.Contains(html, "request timed out") {
		t.Error("error row missing")
	}
}

func TestRenderResultHTMLSaysWhereAttachedRowsCameFrom(t *testing.T) {
	now := time.Now()
	note := AsOfNote(coordinator.SourceCached, "job-7", now.Add(-12*time.Second), now)
	if note != "as of 12 s ago (job job-7, cached)" {
		t.Errorf("note = %q", note)
	}
	if n := AsOfNote(coordinator.SourceFanout, "job-7", now, now); n != "" {
		t.Errorf("a fan-out's note = %q, want none", n)
	}
	rows := []ResultRow{{Source: "You", Kind: "initiator", Converted: 10, Original: "EUR10"}}
	html := RenderResultHTML("job-7", "http://x.com/product/1", "EUR", note, rows)
	if !strings.Contains(html, `<p class="as-of">Vantage prices as of 12 s ago (job job-7, cached)</p>`) {
		t.Errorf("result page does not carry the note:\n%s", html)
	}
}

func TestRenderResultHTMLEscapes(t *testing.T) {
	rows := []ResultRow{{
		Source: "You", Kind: "initiator",
		Original: `<script>alert("x")</script>`, Converted: 1, Confidence: "high",
	}}
	html := RenderResultHTML("job", `http://x.com/product/1?q="><script>`, "EUR", "", rows)
	if strings.Contains(html, "<script>alert") {
		t.Error("original text not escaped")
	}
	doc := htmlx.Parse(html)
	if len(doc.FindByTag("script")) != 0 {
		t.Error("injected script element survived")
	}
}

func TestRenderResultHTMLNoLowConfidenceFootnote(t *testing.T) {
	rows := []ResultRow{{Source: "You", Kind: "initiator", Converted: 10, Original: "EUR10", Confidence: "high"}}
	html := RenderResultHTML("job", "http://x.com/product/1", "EUR", "", rows)
	if strings.Contains(html, "confidence is low") {
		t.Error("footnote should only appear when a low-confidence row exists")
	}
}
