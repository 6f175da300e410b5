// Package browser simulates the user's web browser as seen by the Price
// $heriff add-on: the cookie service, history service and cache the add-on
// taps through the WebExtension APIs, the sandbox that keeps remote page
// requests from tainting local state (paper Sect. 3.6.1), and the
// pollution accounting that decides when a peer must switch to its
// doppelganger's client-side state (Sect. 3.6.2).
package browser

import (
	"context"
	"errors"
	"strings"
	"sync"

	"pricesheriff/internal/shop"
)

// Visit is one history entry. URLs are stored, but only domain-level
// aggregates ever leave the browser (Sect. 2.2, requirement 3: full URLs
// leak PII).
type Visit struct {
	URL    string
	Domain string
	Day    float64
}

// Browser is one user's browser instance.
type Browser struct {
	ID        string
	IP        string
	OS        string
	Browser   string // "chrome" | "firefox" | "safari"
	UserAgent string

	mu            sync.Mutex
	cookies       map[string]string // cookie domain -> value
	history       []Visit
	cache         map[string]string // URL -> page (browser cache service)
	productVisits map[string]int    // real product-page visits per shop domain
	remoteFetches map[string]int    // own-state remote fetches per shop domain
	loggedIn      map[string]bool   // shop domains with an authenticated session
}

// New creates a browser.
func New(id, ip, os, browserName string) *Browser {
	return &Browser{
		ID:            id,
		IP:            ip,
		OS:            os,
		Browser:       browserName,
		UserAgent:     browserName + " on " + os,
		cookies:       make(map[string]string),
		cache:         make(map[string]string),
		productVisits: make(map[string]int),
		remoteFetches: make(map[string]int),
		loggedIn:      make(map[string]bool),
	}
}

// SetLoggedIn marks the user as authenticated at a shop domain; own-state
// fetches to that domain carry the logged-in flag (the amazon.com case of
// Sect. 7.3, where logged-in users see VAT-inclusive prices).
func (b *Browser) SetLoggedIn(domain string, v bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loggedIn[domain] = v
}

// LoggedIn reports whether the user is authenticated at a shop domain.
func (b *Browser) LoggedIn(domain string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.loggedIn[domain]
}

// SetCookie stores a cookie for a domain.
func (b *Browser) SetCookie(domain, value string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cookies[domain] = value
}

// Cookie returns a domain's cookie value ("" if none).
func (b *Browser) Cookie(domain string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cookies[domain]
}

// Cookies returns a copy of the whole jar.
func (b *Browser) Cookies() map[string]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]string, len(b.cookies))
	for k, v := range b.cookies {
		out[k] = v
	}
	return out
}

// History returns a copy of the visit log.
func (b *Browser) History() []Visit {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Visit(nil), b.history...)
}

// HistoryDomains aggregates the history at domain level — the only
// granularity donated to the system (browsing profile vectors).
func (b *Browser) HistoryDomains() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int)
	for _, v := range b.history {
		out[v.Domain]++
	}
	return out
}

// Cached returns the cached page for a URL, if any.
func (b *Browser) Cached(url string) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	page, ok := b.cache[url]
	return page, ok
}

// RecordWebVisit logs ordinary (non-shop) browsing: history only.
func (b *Browser) RecordWebVisit(domain string, day float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.history = append(b.history, Visit{URL: "http://" + domain + "/", Domain: domain, Day: day})
}

// BrowseProduct is the real user visiting a product page: history, cache,
// cookies and the per-domain product-visit counter all update. This is the
// activity that earns "pollution budget" for remote fetches.
func (b *Browser) BrowseProduct(ctx context.Context, f shop.Fetcher, url string, day float64) (*shop.FetchResponse, error) {
	domain, _, err := shop.ParseProductURL(url)
	if err != nil {
		return nil, err
	}
	req := &shop.FetchRequest{
		URL:       url,
		IP:        b.IP,
		Cookies:   b.Cookies(),
		UserAgent: b.UserAgent,
		Day:       day,
		Nonce:     b.nextNonce(),
		LoggedIn:  b.LoggedIn(domain),
	}
	resp, err := f.Fetch(ctx, req)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for d, v := range resp.SetCookies {
		// Off the binary wire both are views of the frame that carries the
		// page; the jar outlives it (and assigning to an existing string
		// key replaces the key, so both are cloned or neither is stored).
		if b.cookies[d] != v {
			b.cookies[strings.Clone(d)] = strings.Clone(v)
		}
	}
	b.history = append(b.history, Visit{URL: url, Domain: domain, Day: day})
	b.cache[url] = resp.HTML
	if resp.Status == 200 {
		b.productVisits[domain]++
	}
	return resp, nil
}

var nonceCounter struct {
	mu sync.Mutex
	n  uint64
}

// nextNonce returns a process-unique request nonce.
func (b *Browser) nextNonce() uint64 {
	nonceCounter.mu.Lock()
	defer nonceCounter.mu.Unlock()
	nonceCounter.n++
	return nonceCounter.n
}

// SandboxState selects which client-side state a sandboxed remote fetch
// exposes to the retailer.
type SandboxState int

// Sandbox state modes.
const (
	// StateOwn sends the user's real cookies (within the pollution budget).
	StateOwn SandboxState = iota
	// StateDoppelganger sends the assigned doppelganger's client state.
	StateDoppelganger
	// StateClean sends no state at all (fresh profile).
	StateClean
)

// ErrNoDoppelgangerState is returned when a doppelganger fetch is requested
// without doppelganger cookies.
var ErrNoDoppelgangerState = errors.New("browser: doppelganger state required")

// SandboxFetch performs a remote product-page request on behalf of another
// peer inside the sandbox: the chosen client-side state is snapshotted into
// the request, and nothing the response sets — cookies, history, cache —
// survives (Sect. 3.6.1: "the sandboxed environment is deleted keeping the
// browser history and cookies clean of any trace").
func (b *Browser) SandboxFetch(ctx context.Context, f shop.Fetcher, url string, day float64, state SandboxState, doppCookies map[string]string) (*shop.FetchResponse, error) {
	var cookies map[string]string
	switch state {
	case StateOwn:
		cookies = b.Cookies()
	case StateDoppelganger:
		if doppCookies == nil {
			return nil, ErrNoDoppelgangerState
		}
		cookies = doppCookies
	case StateClean:
		cookies = nil
	}
	loggedIn := false
	if state == StateOwn {
		if domain, _, err := shop.ParseProductURL(url); err == nil {
			loggedIn = b.LoggedIn(domain)
		}
	}
	req := &shop.FetchRequest{
		URL:       url,
		IP:        b.IP, // the fetch still originates from the peer's IP
		Cookies:   cookies,
		UserAgent: b.UserAgent,
		Day:       day,
		Nonce:     b.nextNonce(),
		LoggedIn:  loggedIn,
	}
	resp, err := f.Fetch(ctx, req)
	if err != nil {
		return nil, err
	}
	// Sandbox teardown: the response's SetCookies are dropped, no history
	// entry is written, nothing is cached. Only the page itself leaves the
	// sandbox, destined for the Measurement server.
	if state == StateOwn && resp.Status == 200 {
		domain, _, _ := shop.ParseProductURL(url)
		b.mu.Lock()
		b.remoteFetches[domain]++
		b.mu.Unlock()
	}
	return resp, nil
}

// ProductVisits returns the user's real product-page visits to a domain.
func (b *Browser) ProductVisits(domain string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.productVisits[domain]
}

// RemoteFetches returns the own-state remote fetches performed for a domain.
func (b *Browser) RemoteFetches(domain string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.remoteFetches[domain]
}

// NeedsDoppelganger decides the state mode for a remote fetch towards a
// domain (Sect. 3.6.2):
//
//   - the user never visited the domain: fetch with own state (no
//     server-side profile exists to pollute; client state is sandboxed);
//   - otherwise, allow one own-state remote fetch per 4 real product
//     visits (the 25% tolerable-pollution budget); past the budget, the
//     doppelganger's state must be used.
func (b *Browser) NeedsDoppelganger(domain string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	visits := b.productVisits[domain]
	if visits == 0 {
		return false
	}
	allowed := visits / 4
	return b.remoteFetches[domain] >= allowed
}
