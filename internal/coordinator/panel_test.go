package coordinator

import (
	"regexp"
	"strings"
	"testing"
)

func panelFixtures() ([]ServerInfo, []PeerInfo) {
	servers := []ServerInfo{
		{Addr: "192.168.1.11:80", Online: true, Pending: 0, LastBeat: 1000},
		{Addr: "192.168.1.13:80", Online: false, Pending: 2, LastBeat: 500},
	}
	peers := []PeerInfo{
		{ID: "SQN9cSHiZA7o_1", IP: "195.235.92.38", Country: "ES", Region: "Barcelona", City: "Barcelona"},
		{ID: "costas<worker>", IP: "81.38.218.228", Country: "ES", Region: "Barcelona", City: "Barcelona"},
	}
	return servers, peers
}

func TestServersPanelText(t *testing.T) {
	servers, _ := panelFixtures()
	out := ServersPanelText(servers)
	for _, want := range []string{"Worker", "online", "offline", "192.168.1.11:80"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Errorf("lines = %d", lines)
	}
}

func TestPeersPanelText(t *testing.T) {
	_, peers := panelFixtures()
	out := PeersPanelText(peers)
	for _, want := range []string{"Peer ID", "SQN9cSHiZA7o_1", "195.235.92.38", "Barcelona"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestPanelsFromLiveCoordinator(t *testing.T) {
	c, world := newCoordinator(t)
	registerPeers(t, c, world, "DE", 2)
	c.Servers.Heartbeat("ms-1", 3)
	srvText := ServersPanelText(c.Servers.Snapshot())
	if !regexp.MustCompile(`ms-1 +online +3 `).MatchString(srvText) {
		t.Errorf("live servers panel wrong:\n%s", srvText)
	}
	peerText := PeersPanelText(c.Peers())
	if !strings.Contains(peerText, "DE") {
		t.Errorf("live peers panel wrong:\n%s", peerText)
	}
}
