package measurement

import (
	"fmt"
	"strings"
	"time"

	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/currency"
)

// RenderResultHTML produces the add-on's result page (paper Fig. 2) as an
// HTML document: one row per vantage point with the converted value, the
// original text, and a red asterisk when currency detection confidence is
// low, plus the footer note explaining the asterisk.
//
// asOf, when not empty, is the AsOfNote of a check answered from another
// check's vantage rows; it is printed under the heading.
func RenderResultHTML(jobID, url, curr, asOf string, rows []ResultRow) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><title>Price check ")
	b.WriteString(escape(jobID))
	b.WriteString("</title></head><body>\n")
	fmt.Fprintf(&b, "<h1>Price check for <a href=%q>%s</a></h1>\n", escape(url), escape(url))
	if asOf != "" {
		fmt.Fprintf(&b, `<p class="as-of">Vantage prices %s</p>`+"\n", escape(asOf))
	}
	b.WriteString(`<table class="results">` + "\n")
	b.WriteString("<tr><th>Variant</th><th>Converted Value</th><th>Original Text</th></tr>\n")
	lowSeen := false
	for _, row := range rows {
		name := row.Source
		if row.Kind == "ipc" || row.Kind == "ppc" {
			name = row.Country + ", " + row.City
			if row.Kind == "ppc" {
				name = "peer " + name
			}
		}
		if row.Err != "" {
			fmt.Fprintf(&b, `<tr class="error"><td>%s</td><td>-</td><td>%s</td></tr>`+"\n",
				escape(name), escape(row.Err))
			continue
		}
		mark := ""
		if row.Confidence == "low" {
			mark = `<span class="low-confidence">*</span>`
			lowSeen = true
		}
		fmt.Fprintf(&b, `<tr><td>%s</td><td class="converted">%s%s</td><td class="original">%s</td></tr>`+"\n",
			escape(name), escape(currency.Format(row.Converted, curr)), mark, escape(row.Original))
	}
	b.WriteString("</table>\n")
	if lowSeen {
		b.WriteString(`<p class="note">* Currency detection confidence is low. Please double check the result.</p>` + "\n")
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

// AsOfNote says how old the vantage rows of a result are when they came
// from another check's job — "as of 12 s ago (job job-00000042)" — and
// nothing for a check that ran its own fan-out (source "" or "fanout").
func AsOfNote(source, jobID string, asOf, now time.Time) string {
	if source == "" || source == coordinator.SourceFanout {
		return ""
	}
	age := now.Sub(asOf).Round(time.Second)
	if age < 0 {
		age = 0
	}
	return fmt.Sprintf("as of %d s ago (job %s, %s)", int(age/time.Second), jobID, source)
}

func escape(s string) string {
	r := strings.NewReplacer(
		"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&#39;",
	)
	return r.Replace(s)
}
