package measurement

import (
	"testing"
	"time"

	"pricesheriff/internal/coordinator"
)

func TestAsOfNoteSaysWhereAttachedRowsCameFrom(t *testing.T) {
	now := time.Now()
	note := AsOfNote(coordinator.SourceCached, "job-7", now.Add(-12*time.Second), now)
	if note != "as of 12 s ago (job job-7, cached)" {
		t.Errorf("note = %q", note)
	}
	if n := AsOfNote(coordinator.SourceFanout, "job-7", now, now); n != "" {
		t.Errorf("a fan-out's note = %q, want none", n)
	}
}
