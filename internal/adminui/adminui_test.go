package adminui

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/geo"
)

func newUI(t *testing.T) (*Server, *coordinator.Coordinator) {
	t.Helper()
	world := geo.NewWorld()
	sl := coordinator.NewServerList(time.Hour, coordinator.LeastPending, nil)
	sl.Register("ms-1:80")
	wl := coordinator.NewWhitelist([]string{"chegg.com"})
	coord := coordinator.New(sl, wl, world)
	return New(coord), coord
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body)
}

// postForm posts a form and returns the status and body.
func postForm(t *testing.T, h http.Handler, path string, form url.Values) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// decode unmarshals a JSON document body into out.
func decode(t *testing.T, body string, out any) {
	t.Helper()
	if err := json.Unmarshal([]byte(body), out); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
}

// TestIndexAndHealth: there is no index page — every view is a JSON
// document — and /healthz answers plain "ok".
func TestIndexAndHealth(t *testing.T) {
	ui, _ := newUI(t)
	if code, _ := get(t, ui.Handler(), "/"); code != http.StatusNotFound {
		t.Errorf("index = %d, want 404", code)
	}
	code, body := get(t, ui.Handler(), "/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("health: %d %q", code, body)
	}
	if code, _ := get(t, ui.Handler(), "/nope"); code != 404 {
		t.Errorf("unknown path = %d", code)
	}
}

func TestServersPanelAndRegistration(t *testing.T) {
	ui, coord := newUI(t)
	code, body := get(t, ui.Handler(), "/servers.json")
	var servers []coordinator.ServerInfo
	decode(t, body, &servers)
	if code != 200 || len(servers) != 1 || servers[0].Addr != "ms-1:80" {
		t.Errorf("servers: %d %+v", code, servers)
	}
	// Register a new measurement server; the answer is the list after it.
	code, body = postForm(t, ui.Handler(), "/servers.json", url.Values{"addr": {"ms-2:80"}})
	decode(t, body, &servers)
	if code != http.StatusOK || len(servers) != 2 {
		t.Errorf("register = %d %+v", code, servers)
	}
	if len(coord.Servers.Snapshot()) != 2 {
		t.Error("registration did not reach the coordinator")
	}
	if code, _ := postForm(t, ui.Handler(), "/servers.json", url.Values{}); code != http.StatusBadRequest {
		t.Errorf("empty addr = %d", code)
	}
}

func TestPeersPanel(t *testing.T) {
	ui, coord := newUI(t)
	if _, err := coord.RegisterPeer("peer-1", "11.1.0.5"); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ui.Handler(), "/peers.json")
	var peers []coordinator.PeerInfo
	decode(t, body, &peers)
	if code != 200 || len(peers) != 1 || peers[0].ID != "peer-1" || peers[0].Country != "ES" {
		t.Errorf("peers: %d %+v", code, peers)
	}
	if code, _ := postForm(t, ui.Handler(), "/peers.json", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("post peers = %d", code)
	}
}

func TestWhitelistReviewWorkflow(t *testing.T) {
	ui, coord := newUI(t)
	// A rejected domain appears in the review queue...
	coord.Whitelist.Check("evil<script>.example")
	code, body := get(t, ui.Handler(), "/whitelist.json")
	var wl WhitelistPayload
	decode(t, body, &wl)
	if code != 200 || wl.Sanctioned != 1 || len(wl.Rejected) != 1 || wl.Rejected[0] != "evil<script>.example" {
		t.Errorf("whitelist: %d %+v", code, wl)
	}
	// ... and the operator sanctions a domain.
	code, body = postForm(t, ui.Handler(), "/whitelist.json", url.Values{"domain": {"newshop.example"}})
	decode(t, body, &wl)
	if code != http.StatusOK || wl.Sanctioned != 2 {
		t.Errorf("add = %d %+v", code, wl)
	}
	if !coord.Whitelist.Check("newshop.example") {
		t.Error("added domain still rejected")
	}
	if code, _ := postForm(t, ui.Handler(), "/whitelist.json", url.Values{}); code != http.StatusBadRequest {
		t.Errorf("empty domain = %d", code)
	}
}

func TestListenRealSocket(t *testing.T) {
	ui, _ := newUI(t)
	if err := ui.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer ui.Close()
	resp, err := http.Get("http://" + ui.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
}
