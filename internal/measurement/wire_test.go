package measurement

import (
	"encoding/json"
	"reflect"
	"testing"

	"pricesheriff/internal/obs"
	"pricesheriff/internal/transport"
)

// TestResultsResponseSpanInterop pins where an answer's spans ride: after
// rows and the done flag comes one reserved, always-empty slot (retired
// with the JSON span blob; kept so the frames do not change), and the
// binary span batch trails it only when there are spans. Bytes a frame
// does carry in the reserved slot are skipped, not read as spans.
func TestResultsResponseSpanInterop(t *testing.T) {
	spans := []obs.WireSpan{{ID: "s1", Parent: "s0", Name: "fanout", Start: 7, End: 9, Attrs: [][2]string{{"kind", "ipc"}}}}
	rows := []ResultRow{{Source: "You", Kind: "initiator", Original: "€ 19,99", Currency: "EUR", Amount: 19.99, Converted: 19.99}}
	cur := (&ResultsResponse{Rows: rows, Done: true, Spans: spans}).AppendWire(nil)
	spanless := (&ResultsResponse{Rows: rows, Done: true}).AppendWire(nil)

	if spanless[len(spanless)-1] != 0 || string(cur[:len(spanless)]) != string(spanless) || len(cur) == len(spanless) {
		t.Fatalf("span batch does not trail an otherwise unchanged frame ending in the empty reserved slot")
	}
	var fromCur ResultsResponse
	d := transport.NewWireDec(cur)
	if err := fromCur.DecodeWire(d); err != nil || d.Remaining() != 0 {
		t.Fatalf("current answer: err %v, %d bytes left", err, d.Remaining())
	}
	if !fromCur.Done || !reflect.DeepEqual(fromCur.Rows, rows) || !reflect.DeepEqual(fromCur.Spans, spans) {
		t.Errorf("current answer decoded to %+v", fromCur)
	}

	blob, _ := json.Marshal(spans)
	filled := transport.AppendBytes(append([]byte(nil), spanless[:len(spanless)-1]...), blob)
	var fromFilled ResultsResponse
	if err := fromFilled.DecodeWire(transport.NewWireDec(filled)); err != nil {
		t.Fatalf("answer with bytes in the reserved slot: %v", err)
	}
	if !fromFilled.Done || !reflect.DeepEqual(fromFilled.Rows, rows) || fromFilled.Spans != nil {
		t.Errorf("answer with bytes in the reserved slot decoded to %+v", fromFilled)
	}
}
