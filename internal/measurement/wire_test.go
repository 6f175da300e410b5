package measurement

import (
	"encoding/json"
	"reflect"
	"testing"

	"pricesheriff/internal/obs"
	"pricesheriff/internal/transport"
)

// TestResultsResponseSpanInterop covers both directions of the move from
// a JSON span blob to the binary span batch. An answer from a server that
// still writes the blob must decode with its spans; and a submitter from
// before the batch — which reads rows, the done flag and the (now empty)
// blob slot, and stops — must find the frame well-formed up to there and
// lose only the spans.
func TestResultsResponseSpanInterop(t *testing.T) {
	spans := []obs.WireSpan{{ID: "s1", Parent: "s0", Name: "fanout", Start: 7, End: 9, Attrs: [][2]string{{"kind", "ipc"}}}}
	rows := []ResultRow{{Source: "You", Kind: "initiator", Original: "€ 19,99", Currency: "EUR", Amount: 19.99, Converted: 19.99}}
	cur := (&ResultsResponse{Rows: rows, Done: true, Spans: spans}).AppendWire(nil)
	spanless := (&ResultsResponse{Rows: rows, Done: true}).AppendWire(nil)

	blob, _ := json.Marshal(spans)
	old := append([]byte(nil), spanless[:len(spanless)-1]...) // drop the empty blob slot
	old = transport.AppendBytes(old, blob)
	var fromOld ResultsResponse
	if err := fromOld.DecodeWire(transport.NewWireDec(old)); err != nil {
		t.Fatalf("answer with the old JSON span blob: %v", err)
	}
	if !fromOld.Done || !reflect.DeepEqual(fromOld.Rows, rows) || !reflect.DeepEqual(fromOld.Spans, spans) {
		t.Errorf("old-format answer decoded to %+v", fromOld)
	}

	// What an old decoder reads of a current frame is exactly a current
	// spanless frame: the batch trails it.
	if string(cur[:len(spanless)]) != string(spanless) || len(cur) == len(spanless) {
		t.Fatalf("span batch does not trail an otherwise unchanged frame")
	}
	var fromCur ResultsResponse
	d := transport.NewWireDec(cur)
	if err := fromCur.DecodeWire(d); err != nil || d.Remaining() != 0 {
		t.Fatalf("current answer: err %v, %d bytes left", err, d.Remaining())
	}
	if !reflect.DeepEqual(fromCur.Spans, spans) {
		t.Errorf("current answer decoded spans %+v", fromCur.Spans)
	}
}
