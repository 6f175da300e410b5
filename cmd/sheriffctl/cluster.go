package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"pricesheriff/internal/ha"
	"pricesheriff/internal/transport"
)

// runCluster implements `sheriffctl cluster status`: it asks every
// replica of a replicated coordinator deployment for its ha.status and
// renders the cluster's shape — who is primary in which term, how far
// each standby lags, and what caused the last failover.
func runCluster(args []string) {
	if len(args) == 0 || args[0] != "status" {
		log.Fatal("usage: sheriffctl cluster status -peers HOST:PORT,... [-json] [-timeout 3s]")
	}
	fs := flag.NewFlagSet("cluster status", flag.ExitOnError)
	peers := fs.String("peers", "", "comma-separated coordinator replica addresses (required)")
	asJSON := fs.Bool("json", false, "print the raw per-replica Status records")
	timeout := fs.Duration("timeout", 3*time.Second, "per-replica RPC deadline")
	fs.Parse(args[1:])

	var addrs []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			addrs = append(addrs, p)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("need -peers (sheriffd -coord-only prints the replica set)")
	}

	type row struct {
		Addr   string     `json:"addr"`
		Status *ha.Status `json:"status,omitempty"`
		Err    string     `json:"err,omitempty"`
	}
	fabric := transport.TCP{}
	rows := make([]row, len(addrs))
	for i, addr := range addrs {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		st, err := ha.FetchStatus(ctx, fabric, addr)
		cancel()
		rows[i] = row{Addr: addr, Status: st}
		if err != nil {
			rows[i].Err = err.Error()
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rows)
		return
	}

	var primary *ha.Status
	for _, r := range rows {
		if r.Status != nil && r.Status.State == "primary" {
			if primary == nil || r.Status.Term > primary.Term {
				primary = r.Status
			}
		}
	}
	fmt.Printf("%-22s %-10s %6s %8s %8s %8s\n", "REPLICA", "STATE", "TERM", "LAST", "COMMIT", "APPLIED")
	for _, r := range rows {
		if r.Status == nil {
			fmt.Printf("%-22s %-10s %s\n", r.Addr, "down", r.Err)
			continue
		}
		st := r.Status
		fmt.Printf("%-22s %-10s %6d %8d %8d %8d\n",
			r.Addr, st.State, st.Term, st.LastIndex, st.Commit, st.Applied)
	}
	switch {
	case primary == nil:
		fmt.Println("\nno primary reachable (election in progress, or a majority is down)")
	default:
		fmt.Printf("\nprimary %s, term %d, %d failovers seen\n",
			primary.Self, primary.Term, primary.Failovers)
		if lf := primary.LastFailover; lf != nil {
			fmt.Printf("last failover: term %d at %s — %s\n",
				lf.Term, lf.At.UTC().Format(time.RFC3339), lf.Cause)
		}
		for _, p := range primary.Peers {
			ack := "never"
			if !p.LastAck.IsZero() {
				ack = fmt.Sprintf("%v ago", time.Since(p.LastAck).Round(time.Millisecond))
			}
			fmt.Printf("standby %s: matched %d, lag %d, last ack %s\n", p.Addr, p.Match, p.Lag, ack)
		}
	}
}
