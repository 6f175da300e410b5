package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pricesheriff/internal/measurement"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/transport"
)

// TestRecordHistoryDoesNotPinResultsFrame guards the clone rule for strings
// leaving a WireDec: every string of a decoded results answer is a slice
// of one copy of the whole frame — rows plus the span blob — so a
// two-byte country kept as a series key and a stored column would pin
// tens of kilobytes per check.
func TestRecordHistoryDoesNotPinResultsFrame(t *testing.T) {
	sys := newSystem(t)

	answer := measurement.ResultsResponse{Done: true}
	for i, country := range []string{"ES", "ES", "US", "GB", "DE", "JP"} {
		answer.Rows = append(answer.Rows, measurement.ResultRow{
			Source: fmt.Sprintf("ipc-%02d-%s", i, country), Kind: "ipc", Country: country,
			// Falling prices: the second ES row replaces the first as the
			// country's best, the path on which a map keeps the newer key.
			Original: "€ 19,99", Currency: "EUR", Amount: 19.99, Converted: 19.99 - float64(i),
		})
	}
	for i := 0; i < 64; i++ {
		answer.Spans = append(answer.Spans, obs.WireSpan{
			ID: fmt.Sprintf("sp-%d", i), Name: "vantage",
			Attrs: [][2]string{{"note", strings.Repeat("x", 512)}},
		})
	}
	frame := answer.AppendWire(nil)
	if len(frame) < 32<<10 {
		t.Fatalf("results frame is %d bytes, want >= 32 KiB", len(frame))
	}

	settledHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	record := func(i int) {
		var resp measurement.ResultsResponse
		if err := resp.DecodeWire(transport.NewWireDec(frame)); err != nil {
			t.Fatal(err)
		}
		sys.recordHistory(fmt.Sprintf("http://shop.example/p/%d", i%8), resp.Rows)
	}
	for i := 0; i < 8; i++ {
		record(i) // the series exist before the baseline is read
	}
	const checks = 300
	before := settledHeap()
	for i := 0; i < checks; i++ {
		record(i)
	}
	after := settledHeap()
	if after > before {
		if perCheck := (after - before) / checks; perCheck > 4<<10 {
			t.Errorf("recordHistory retains %d bytes per check of a %d-byte results frame, want < 4 KiB (a decoded string is pinning the frame)",
				perCheck, len(frame))
		}
	}
}
