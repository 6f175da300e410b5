package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"time"

	"pricesheriff/internal/adminui"
)

// Longitudinal subcommands, all speaking to a deployment's admin UI:
//
//	sheriffctl watch add -admin HOST:PORT -url URL [-currency USD]
//	sheriffctl watch list -admin HOST:PORT [-json]
//	sheriffctl watch rm -admin HOST:PORT -url URL
//	sheriffctl history -admin HOST:PORT [-url URL -country CC] [-json]
//	sheriffctl export -admin HOST:PORT [-o FILE]
//	sheriffctl import -admin HOST:PORT -f FILE

func runWatch(args []string) {
	c := docFlags("watch")
	watchURL := c.String("url", "", "product URL")
	currency := c.String("currency", "USD", "currency the watch converts to")
	words := c.parse(args)
	if len(words) != 1 {
		log.Fatal("usage: sheriffctl watch add|list|rm -admin HOST:PORT ...")
	}
	var doc adminui.WatchesPayload
	switch sub := words[0]; sub {
	case "add", "rm":
		if *watchURL == "" {
			log.Fatal("need -url")
		}
		form := url.Values{"action": {sub}, "url": {*watchURL}}
		if sub == "add" {
			form.Set("currency", *currency)
		}
		if !c.postAdmin("/watches.json", "watch "+sub, form, &doc) {
			return
		}
		if sub == "add" {
			fmt.Printf("watching %s (%s)\n", *watchURL, *currency)
		} else {
			fmt.Printf("unwatched %s\n", *watchURL)
		}
	case "list":
		if !c.getAdminJSON("/watches.json", "watches", &doc) {
			return
		}
		fmt.Printf("%-4s %-50s %-8s %-5s %s\n", "ID", "URL", "CURR", "RUNS", "NEXT RUN")
		for _, w := range doc.Watches {
			fmt.Printf("%-4d %-50s %-8s %-5d %s\n", w.ID, w.URL, w.Currency, w.Runs, w.NextRun.Format(time.RFC3339))
		}
		if len(doc.Verdicts) > 0 {
			fmt.Println("\nverdicts:")
			for _, v := range doc.Verdicts {
				fmt.Printf("  %-16s %s — spread %.3f vs baseline %.3f at %s\n",
					v.Kind, v.URL, v.Spread, v.Baseline, v.T.Format(time.RFC3339))
			}
		}
	default:
		log.Fatalf("unknown watch subcommand %q (want add, list or rm)", sub)
	}
}

func runHistory(args []string) {
	c := docFlags("history")
	histURL := c.String("url", "", "product URL (with -country: print that series)")
	country := c.String("country", "", "vantage country code")
	c.parseNone(args, "sheriffctl history -admin HOST:PORT [-url URL -country CC] [-json]")
	var doc adminui.HistoryPayload
	if *histURL == "" || *country == "" {
		if !c.getAdminJSON("/history.json", "history", &doc) {
			return
		}
		fmt.Printf("%-50s %-8s %s\n", "URL", "COUNTRY", "POINTS")
		for _, s := range doc.Series {
			fmt.Printf("%-50s %-8s %d\n", s.URL, s.Country, s.Points)
		}
		return
	}
	q := "/history.json?url=" + url.QueryEscape(*histURL) + "&country=" + url.QueryEscape(*country)
	if !c.getAdminJSON(q, "history", &doc) {
		return
	}
	fmt.Printf("%s @ %s — %d points\n", *histURL, *country, len(doc.Points))
	for _, p := range doc.Points {
		fmt.Printf("  %s  %10.2f\n", p.T.Format(time.RFC3339), p.Price)
	}
}

// runExport streams a deployment's snapshot to a file — the paper's
// MySQL-dump workflow for moving a corpus into an analysis run.
func runExport(args []string) {
	c := adminFlags("export")
	out := c.String("o", "", "output file (default stdout)")
	c.parseNone(args, "sheriffctl export -admin HOST:PORT [-o FILE]")
	resp, err := adminClient().Get("http://" + c.admin + "/snapshot")
	if err != nil {
		log.Fatalf("export: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("export: status %d", resp.StatusCode)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("create %s: %v", *out, err)
		}
		defer f.Close()
		w = f
	}
	n, err := io.Copy(w, resp.Body)
	if err != nil {
		log.Fatalf("export: %v", err)
	}
	if *out != "" {
		fmt.Printf("snapshot written to %s (%d bytes)\n", *out, n)
	}
}

// runImport uploads a snapshot into a deployment (merge semantics; the
// server fixes up cross-table joins).
func runImport(args []string) {
	c := adminFlags("import")
	in := c.String("f", "", "snapshot file (required)")
	c.parseNone(args, "sheriffctl import -admin HOST:PORT -f FILE")
	if *in == "" {
		log.Fatal("need -f")
	}
	f, err := os.Open(*in)
	if err != nil {
		log.Fatalf("open %s: %v", *in, err)
	}
	defer f.Close()
	resp, err := adminClient().Post("http://"+c.admin+"/snapshot", "application/json", f)
	var out struct {
		Tables     int `json:"tables"`
		JoinsFixed int `json:"joins_fixed"`
	}
	if c.answer(resp, err, "import", &out) {
		fmt.Printf("imported %d tables (%d joins fixed up)\n", out.Tables, out.JoinsFixed)
	}
}
