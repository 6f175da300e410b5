package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
	"time"

	"pricesheriff/internal/adminui"
	"pricesheriff/internal/coordinator"
)

// adminCmd is the flag set every admin verb starts from: -admin (the
// deployment's admin API address, required) and, on verbs that render a
// document, -json (print the JSON document instead of rendering it).
type adminCmd struct {
	*flag.FlagSet
	admin string
	raw   bool
}

// adminFlags is the flag set of a verb that moves a snapshot (export,
// import): -admin only.
func adminFlags(name string) *adminCmd {
	c := &adminCmd{FlagSet: flag.NewFlagSet(name, flag.ExitOnError)}
	c.StringVar(&c.admin, "admin", "", "admin API address (required; sheriffd prints it)")
	return c
}

// docFlags is the flag set of a verb that renders a JSON document:
// -admin and -json.
func docFlags(name string) *adminCmd {
	c := adminFlags(name)
	c.BoolVar(&c.raw, "json", false, "print the raw JSON document")
	return c
}

// parse parses args and returns the positional words, which may come
// before the flags ("servers add ADDR -admin HOST:PORT") or after them.
func (c *adminCmd) parse(args []string) []string {
	var words []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		words, args = append(words, args[0]), args[1:]
	}
	c.Parse(args)
	if c.admin == "" {
		log.Fatal("need -admin (sheriffd prints the admin api address)")
	}
	return append(words, c.Args()...)
}

// parseNone parses the args of a verb that takes no positional word and
// ends the command with usage if any was given.
func (c *adminCmd) parseNone(args []string, usage string) {
	if len(c.parse(args)) != 0 {
		log.Fatal("usage: " + usage)
	}
}

func adminClient() *http.Client { return &http.Client{Timeout: 30 * time.Second} }

// getAdminJSON fetches one admin-UI JSON document and decodes it into out,
// or with -json prints it to stdout indented instead and reports false:
// there is nothing left to render. Any failure ends the command; what
// names the document in the message.
func (c *adminCmd) getAdminJSON(path, what string, out any) bool {
	resp, err := adminClient().Get("http://" + c.admin + path)
	return c.answer(resp, err, "fetch "+what, out)
}

// postAdmin posts form to one admin-UI document's path — a mutation,
// answered with the document after it — and decodes the answer like
// getAdminJSON.
func (c *adminCmd) postAdmin(path, what string, form url.Values, out any) bool {
	resp, err := adminClient().PostForm("http://"+c.admin+path, form)
	return c.answer(resp, err, what, out)
}

func (c *adminCmd) answer(resp *http.Response, err error, what string, out any) bool {
	if err != nil {
		log.Fatalf("%s: %v", what, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("%s: %v", what, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := fmt.Sprintf("%s: status %d", what, resp.StatusCode)
		if text := strings.TrimSpace(string(body)); text != "" {
			msg += ": " + text
		}
		log.Fatal(msg)
	}
	if c.raw {
		var b bytes.Buffer
		if err := json.Indent(&b, body, "", "  "); err != nil {
			log.Fatalf("decode %s: %v", what, err)
		}
		fmt.Println(b.String())
		return false
	}
	if err := json.Unmarshal(body, out); err != nil {
		log.Fatalf("decode %s: %v", what, err)
	}
	return true
}

// runServers implements `sheriffctl servers [add ADDR]`: print the
// measurement servers and their pending jobs (paper Fig. 7), after
// registering ADDR with add.
func runServers(args []string) {
	c := docFlags("servers")
	words := c.parse(args)
	var rows []coordinator.ServerInfo
	switch {
	case len(words) == 0:
		if !c.getAdminJSON("/servers.json", "servers", &rows) {
			return
		}
	case len(words) == 2 && words[0] == "add":
		if !c.postAdmin("/servers.json", "register server", url.Values{"addr": {words[1]}}, &rows) {
			return
		}
		fmt.Printf("registered %s\n", words[1])
	default:
		log.Fatal("usage: sheriffctl servers [add ADDR] -admin HOST:PORT [-json]")
	}
	fmt.Print(coordinator.ServersPanelText(rows))
}

// runPeers implements `sheriffctl peers`: print the online peer proxies
// (paper Fig. 16).
func runPeers(args []string) {
	c := docFlags("peers")
	c.parseNone(args, "sheriffctl peers -admin HOST:PORT [-json]")
	var rows []coordinator.PeerInfo
	if c.getAdminJSON("/peers.json", "peers", &rows) {
		fmt.Print(coordinator.PeersPanelText(rows))
	}
}

// runWhitelist implements `sheriffctl whitelist [add DOMAIN]`: print the
// sanctioned-domain count and the rejected domains awaiting review
// (paper Sect. 2.3), after sanctioning DOMAIN with add.
func runWhitelist(args []string) {
	c := docFlags("whitelist")
	words := c.parse(args)
	var doc adminui.WhitelistPayload
	switch {
	case len(words) == 0:
		if !c.getAdminJSON("/whitelist.json", "whitelist", &doc) {
			return
		}
	case len(words) == 2 && words[0] == "add":
		if !c.postAdmin("/whitelist.json", "sanction domain", url.Values{"domain": {words[1]}}, &doc) {
			return
		}
		fmt.Printf("sanctioned %s\n", words[1])
	default:
		log.Fatal("usage: sheriffctl whitelist [add DOMAIN] -admin HOST:PORT [-json]")
	}
	fmt.Printf("%d sanctioned domains\n", doc.Sanctioned)
	if len(doc.Rejected) > 0 {
		fmt.Println("rejected (for manual review):")
		for _, d := range doc.Rejected {
			fmt.Println("  " + d)
		}
	}
}
