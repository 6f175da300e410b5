package coordinator

import (
	"fmt"
	"strings"
	"time"
)

// The deployment exposed two real-time web panels: the Measurement-server
// monitor (paper Fig. 7: worker, port, status, jobs) and the peer-proxy
// monitor (Fig. 16: peer ID, IP, country, region, city). The admin UI
// serves their rows as /servers.json and /peers.json; these renderers
// print the tables in the terminal (`sheriffctl servers`, `sheriffctl
// peers`).

// ServersPanelText renders the Fig. 7 table for terminals.
func ServersPanelText(rows []ServerInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-8s %6s %20s\n", "Worker", "Status", "Jobs", "Last heartbeat")
	for _, r := range rows {
		status := "offline"
		if r.Online {
			status = "online"
		}
		fmt.Fprintf(&b, "%-24s %-8s %6d %20s\n",
			r.Addr, status, r.Pending, time.UnixMilli(r.LastBeat).UTC().Format(time.RFC3339))
	}
	return b.String()
}

// PeersPanelText renders the Fig. 16 table for terminals.
func PeersPanelText(rows []PeerInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-16s %-8s %-16s %-16s\n", "Peer ID", "IP", "Country", "Region", "City")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %-16s %-8s %-16s %-16s\n", r.ID, r.IP, r.Country, r.Region, r.City)
	}
	return b.String()
}
