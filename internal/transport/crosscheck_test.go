package transport_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"pricesheriff/internal/transport"

	// Imported for their wire-codec registrations: the cross-check below
	// iterates every registered frame type.
	_ "pricesheriff/internal/coordinator"
	_ "pricesheriff/internal/ha"
	_ "pricesheriff/internal/measurement"
	_ "pricesheriff/internal/peer"
	_ "pricesheriff/internal/store"
)

// wireSamples holds one representative JSON value per registered frame
// type, keyed by registered name. TestWireJSONBinaryCrossCheck fails when
// a newly registered codec has no sample here — add one exercising every
// field of the new type.
var wireSamples = map[string]string{
	"ms.check_request": `{
		"job_id": "job-42", "url": "http://shop.example/p/1",
		"tags_path": {"steps": [
			{"tag": "html", "index": 0},
			{"tag": "body", "index": 0},
			{"tag": "div", "index": 2, "class": "product"},
			{"tag": "span", "index": 1, "class": "price", "id": "p1"}
		]},
		"initiator_html": "<html><body>x</body></html>",
		"initiator_id": "user-7", "currency": "USD", "day": 12.5,
		"trace_id": "t-1", "parent_span": "s-9", "origin": "watch"}`,
	"ms.results_request": `{"job_id": "job-42", "since": 3, "wait": true}`,
	"ms.results_response": `{
		"rows": [
			{"source": "You", "kind": "initiator", "peer_id": "user-7",
			 "original": "$ 19.99", "currency": "USD", "amount": 19.99,
			 "converted": 17.5, "confidence": "high"},
			{"source": "peer ES", "kind": "ppc", "peer_id": "ppc-1",
			 "country": "ES", "city": "Madrid", "mode": "doppelganger",
			 "err": "status 500"}
		],
		"done": true,
		"spans": [{"id": "sp1", "n": "fanout", "s": 100, "e": 250, "a": [["kind", "ipc"]]}]}`,
	"store.insert_request": `{"table": "responses", "row": {
		"job_id": "job-42", "amount": 19.99, "ok": true, "note": null,
		"nested": {"a": [1, 2]}}}`,
	"store.insert_response":       `{"id": -7}`,
	"store.insert_batch_request":  `{"table": "responses", "rows": [{"a": "x"}, null, {"b": 2.5}]}`,
	"store.insert_batch_response": `{"ids": [1, 2, 30000]}`,
	"store.row_list":              `[{"id": 7, "job_id": "job-42", "html_diff": "[]", "ok": true}, null, {"amount": 19.99}]`,
	"ha.vote_request":             `{"term": 9, "candidate": "r2", "last_index": 41, "last_term": 8}`,
	"ha.vote_response":            `{"term": 9, "granted": true}`,
	"ha.append_request": `{
		"term": 9, "leader": "r1", "prev_index": 40, "prev_term": 8,
		"entries": [
			{"i": 41, "t": 9, "c": {"k": "job_new", "d": {"id": "job-42"}}},
			{"i": 42, "t": 9, "c": {"k": "job_done"}}
		],
		"commit": 40}`,
	"ha.append_response": `{"term": 9, "ok": true, "last_index": 42}`,
	"peer.msg": `{
		"kind": "page_req", "from": "ms-1", "to": "ppc-3", "req_id": 11,
		"err": "late", "payload": {"url": "http://shop.example/p/1", "day": 3},
		"tid": "t-1", "sid": "s-2", "smp": true,
		"spans": [{"id": "sp1", "p": "sp0", "n": "fetch", "s": 7, "e": 9}]}`,
	"coord.newjob_request":    `{"domain": "shop.example", "initiator_id": "user-7", "key": "http://shop.example/p/1\u0000a1\u0000EUR\u00003", "fresh": true}`,
	"coord.newjob_response":   `{"job_id": "job-42", "server_addr": "inproc-3", "source": "cached", "age_ms": 1200}`,
	"coord.heartbeat_request": `{"addr": "ms-addr", "pending": 4, "shedding": true}`,
	"coord.job_ref":           `{"job_id": "job-42"}`,
	"coord.ring_state":        `{"version": 3, "ring": {"version": 3, "seed": 9, "vnodes": 64, "members": [{"id": "shard-0", "addr": "inproc-1"}]}}`,
	"coord.peer_list": `[
		{"id": "ppc-1", "ip": "10.0.0.7", "country": "ES", "region": "MD", "city": "Madrid"},
		{"id": "ppc-2", "ip": "10.0.1.9", "country": "ES", "region": "", "city": ""}]`,
	"shop.fetch_request": `{
		"url": "http://shop.example/p/1", "ip": "10.1.2.3",
		"cookies": {"shop.example": "sess-1", "tracker.example": "t-000007"},
		"user_agent": "sheriff-ipc/1.0", "day": 12.5, "nonce": 18446744073709551615,
		"logged_in": true}`,
	"shop.fetch_response": `{
		"status": 200, "html": "<html><body><span class=\"price\">€ 19,99</span></body></html>",
		"set_cookies": {"shop.example": "sess-1", "tracker.example": "t-000007"}}`,
	"peer.page_request": `{"url": "http://shop.example/p/1", "day": 3.25}`,
	"peer.page_response": `{
		"status": 200, "html": "<html><body>x</body></html>",
		"mode": "doppelganger", "peer_id": "ppc-3"}`,
	"transport_test.echo": `{"name": "hello", "n": 3}`,
	"transport_test.page": `{"url": "u", "peer": "p", "mode": "own", "cookie": "c", "note": "", "html": "<html/>", "status": -3}`,
}

// TestWireJSONBinaryCrossCheck proves the hand-written binary codecs and
// the legacy JSON encoding agree for every registered frame type: a value
// decoded from its binary frame must JSON-serialize identically to the
// value decoded from its JSON serialization.
func TestWireJSONBinaryCrossCheck(t *testing.T) {
	infos := transport.RegisteredWire()
	if len(infos) == 0 {
		t.Fatal("no wire codecs registered")
	}
	for _, info := range infos {
		sample, ok := wireSamples[info.Name]
		if !ok {
			t.Errorf("registered frame %q (tag %d) has no cross-check sample — add one to wireSamples", info.Name, info.Tag)
			continue
		}
		// The reference value: the sample decoded by the JSON path.
		ref := info.New()
		if err := json.Unmarshal([]byte(sample), ref); err != nil {
			t.Errorf("%s: bad sample: %v", info.Name, err)
			continue
		}
		if got := ref.WireTag(); got != info.Tag {
			t.Errorf("%s: WireTag = %d, registry says %d", info.Name, got, info.Tag)
		}
		// Binary round trip of the reference.
		bin := ref.AppendWire(nil)
		out := info.New()
		d := transport.NewWireDec(bin)
		if err := out.DecodeWire(d); err != nil {
			t.Errorf("%s: DecodeWire: %v", info.Name, err)
			continue
		}
		if rem := d.Remaining(); rem != 0 {
			t.Errorf("%s: %d bytes left after decode", info.Name, rem)
		}
		// Cross-check through canonical JSON: both values must serialize
		// to the same object graph.
		refJSON, err := json.Marshal(ref)
		if err != nil {
			t.Fatalf("%s: marshal ref: %v", info.Name, err)
		}
		outJSON, err := json.Marshal(out)
		if err != nil {
			t.Fatalf("%s: marshal out: %v", info.Name, err)
		}
		var a, b any
		json.Unmarshal(refJSON, &a)
		json.Unmarshal(outJSON, &b)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: binary round trip diverges from JSON:\n json   %s\n binary %s", info.Name, refJSON, outJSON)
		}
	}
	for name := range wireSamples {
		found := false
		for _, info := range infos {
			if info.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("sample %q has no registered codec — stale entry?", name)
		}
	}
}
