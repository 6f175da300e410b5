package core

import (
	"testing"

	"pricesheriff/internal/transport"
)

func jsonBodyFrames(sys *System, fabric string) int64 {
	return sys.Metrics().Counter("sheriff_transport_wire_fallback_total", "fabric", fabric, "reason", "json_body").Value()
}

// TestCheckPathNeverFallsBackToJSONBodies: once the deployment is warm
// (registrations, ring fetches and catalog lookups are allowed their
// reflective JSON), a price check moves no envelope whose body rides
// JSON. The next frame added to the check path without a wire codec fails
// here instead of turning up in a heap profile.
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
			url := productURL(t, sys, "steampowered.com", 0)
			check := func(i int) {
				t.Helper()
				res, err := sys.PriceCheck(users[i%len(users)].ID, url)
				if err != nil {
					t.Fatalf("check %d: %v", i, err)
				}
				for _, r := range res.Rows {
					if r.Err != "" {
						t.Errorf("check %d row %s: %s", i, r.Source, r.Err)
					}
				}
			}
			// Warm-up: every user and both measurement servers have carried
			// a check, so every connection the path uses is dialed.
			for i := 0; i < 2*len(users); i++ {
				check(i)
			}
			warm := jsonBodyFrames(sys, tc.label)
			for i := 0; i < 20; i++ {
				check(i)
			}
			if n := jsonBodyFrames(sys, tc.label) - warm; n != 0 {
				t.Errorf("%d envelope bodies rode JSON over 20 warm checks, want 0", n)
			}
		})
	}
}
