package core

import (
	"context"
	"testing"

	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/transport"
)

func jsonBodyFrames(sys *System, fabric string) int64 {
	return sys.Metrics().Counter("sheriff_transport_wire_fallback_total", "fabric", fabric, "reason", "json_body").Value()
}

// TestCheckPathNeverFallsBackToJSONBodies: once the deployment is warm
// (registrations, ring fetches and catalog lookups are allowed their
// reflective JSON), a price check moves no envelope whose body rides
// JSON — whether it fans out or is attached to a check that did. The next
// frame added to the check path without a wire codec fails here instead of
// turning up in a heap profile.
//
// This test used to fail about one run in five under -race on TCP ("1
// envelope bodies rode JSON"): the first ms.check on a connection dialed
// during the counted checks left before the connection had negotiated its
// encoding. Connections are binary from their first byte now, so when a
// connection is dialed no longer matters; the warm-up stays for the
// registrations that do ride JSON.
func TestCheckPathNeverFallsBackToJSONBodies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fabric transport.Network
		label  string
	}{
		{"inproc", nil, "inproc"},
		{"tcp", transport.TCP{}, "tcp"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, users := newPoolSystem(t, tc.fabric, 2)
			defer sys.Close()
			urls := distinctURLs(t, sys, 2*len(users)+10)
			check := func(i int, url string, attached bool) {
				t.Helper()
				res, err := sys.PriceCheckContext(context.Background(), users[i%len(users)].ID, url)
				if err != nil {
					t.Fatalf("check %d: %v", i, err)
				}
				if got := res.Source != coordinator.SourceFanout; got != attached {
					t.Errorf("check %d: source %q, want attached=%v", i, res.Source, attached)
				}
				for _, r := range res.Rows {
					if r.Err != "" {
						t.Errorf("check %d row %s: %s", i, r.Source, r.Err)
					}
				}
			}
			// Warm-up: every user has carried a fan-out and an attach.
			for i := 0; i < 2*len(users); i++ {
				check(i, urls[i], false)
				check(i+1, urls[i], true)
			}
			warm := jsonBodyFrames(sys, tc.label)
			for i := 0; i < 10; i++ {
				url := urls[2*len(users)+i]
				check(i, url, false)
				check(i+1, url, true)
			}
			if n := jsonBodyFrames(sys, tc.label) - warm; n != 0 {
				t.Errorf("%d envelope bodies rode JSON over 20 warm checks (10 fan-outs, 10 attached), want 0", n)
			}
		})
	}
}
