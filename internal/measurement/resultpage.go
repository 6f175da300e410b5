package measurement

import (
	"fmt"
	"time"

	"pricesheriff/internal/coordinator"
)

// AsOfNote says how old the vantage rows of a result are when they came
// from another check's job — "as of 12 s ago (job job-00000042)" — and
// nothing for a check that ran its own fan-out (source "" or "fanout").
// The result page (core.FormatResult, paper Fig. 2) prints it under its
// heading.
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
