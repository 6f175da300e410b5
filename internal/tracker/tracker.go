// Package tracker simulates the third-party online-tracking ecosystem the
// Price $heriff monitors (paper Sect. 2.2, requirement 2): tracker domains
// embedded in retailer pages set cookies, observe visits, and accumulate
// server-side interest profiles. A retailer wishing to run personal-data-
// induced price discrimination (PDI-PD) would buy exactly this signal; the
// shop package's PDI-PD strategy consumes it, giving the watchdog a ground
// truth to validate against.
package tracker

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// CookieName is the cookie key a tracker sets in the visitor's browser;
// its value identifies the visitor to the tracker.
const CookieName = "_tid"

// Tracker is one third-party tracking domain.
type Tracker struct {
	Domain string

	mu       sync.Mutex
	nextID   int
	profiles map[string]map[string]int // cookie value -> category -> visits
}

// New creates a tracker for a domain.
func New(domain string) *Tracker {
	return &Tracker{Domain: domain, profiles: make(map[string]map[string]int)}
}

// Observe records a visit. cookie is the visitor's existing tracker cookie
// value ("" if none); the return value is the cookie the tracker sets (the
// same one, or a freshly minted ID for new visitors).
func (t *Tracker) Observe(cookie, site, category string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cookie == "" || t.profiles[cookie] == nil {
		if cookie == "" {
			t.nextID++
			cookie = fmt.Sprintf("%s-%06d", t.Domain, t.nextID)
		}
		if t.profiles[cookie] == nil {
			// The key outlives the request the cookie arrived in, which
			// over the binary wire is a view of that request's frame.
			cookie = strings.Clone(cookie)
			t.profiles[cookie] = make(map[string]int)
		}
	}
	if category != "" {
		t.profiles[cookie][category]++
	}
	return cookie
}

// InterestScore returns how many visits in the given category the tracker
// has attributed to this cookie.
func (t *Tracker) InterestScore(cookie, category string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.profiles[cookie][category]
}

// Profile returns a copy of the visitor's full interest profile.
func (t *Tracker) Profile(cookie string) map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.profiles[cookie]
	out := make(map[string]int, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Visitors returns the number of distinct cookies the tracker has profiled.
func (t *Tracker) Visitors() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.profiles)
}

// Forget erases the profile behind a cookie (a user clearing state, or a
// doppelganger being discarded after pollution).
func (t *Tracker) Forget(cookie string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.profiles, cookie)
}

// TopInterests returns the visitor's categories sorted by visit count
// (descending, ties by name) — what an ad exchange would sell.
func (t *Tracker) TopInterests(cookie string, n int) []string {
	p := t.Profile(cookie)
	cats := make([]string, 0, len(p))
	for c := range p {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool {
		if p[cats[i]] != p[cats[j]] {
			return p[cats[i]] > p[cats[j]]
		}
		return cats[i] < cats[j]
	})
	if n < len(cats) {
		cats = cats[:n]
	}
	return cats
}
