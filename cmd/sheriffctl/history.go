package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"pricesheriff/internal/history"
)

// Longitudinal subcommands, all speaking to a deployment's admin UI:
//
//	sheriffctl watch add -admin HOST:PORT -url URL [-currency USD]
//	sheriffctl watch list -admin HOST:PORT [-json]
//	sheriffctl watch rm -admin HOST:PORT -url URL
//	sheriffctl history -admin HOST:PORT [-url URL -country CC] [-json]
//	sheriffctl export -admin HOST:PORT [-o FILE]
//	sheriffctl import -admin HOST:PORT -f FILE

func adminClient() *http.Client { return &http.Client{Timeout: 30 * time.Second} }

func runWatch(args []string) {
	if len(args) < 1 {
		log.Fatal("usage: sheriffctl watch add|list|rm ...")
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("watch "+sub, flag.ExitOnError)
	admin := fs.String("admin", "", "admin UI address (required; sheriffd prints it)")
	watchURL := fs.String("url", "", "product URL")
	currency := fs.String("currency", "USD", "currency the watch converts to")
	raw := fs.Bool("json", false, "print raw JSON")
	fs.Parse(rest)
	if *admin == "" {
		log.Fatal("need -admin")
	}
	switch sub {
	case "add", "rm":
		if *watchURL == "" {
			log.Fatal("need -url")
		}
		form := url.Values{"action": {sub}, "url": {*watchURL}, "json": {"1"}}
		if sub == "add" {
			form.Set("currency", *currency)
		}
		resp, err := adminClient().PostForm("http://"+*admin+"/watches", form)
		if err != nil {
			log.Fatalf("watch %s: %v", sub, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("watch %s: status %d: %s", sub, resp.StatusCode, strings.TrimSpace(string(body)))
		}
		if sub == "add" {
			fmt.Printf("watching %s (%s)\n", *watchURL, *currency)
		} else {
			fmt.Printf("unwatched %s\n", *watchURL)
		}
	case "list":
		var out struct {
			Watches  []history.Watch   `json:"watches"`
			Verdicts []history.Verdict `json:"verdicts"`
		}
		getAdminJSON(*admin, "/watches.json", "/watches.json", &out, *raw)
		if *raw {
			return
		}
		fmt.Printf("%-4s %-50s %-8s %-5s %s\n", "ID", "URL", "CURR", "RUNS", "NEXT RUN")
		for _, w := range out.Watches {
			fmt.Printf("%-4d %-50s %-8s %-5d %s\n", w.ID, w.URL, w.Currency, w.Runs, w.NextRun.Format(time.RFC3339))
		}
		if len(out.Verdicts) > 0 {
			fmt.Println("\nverdicts:")
			for _, v := range out.Verdicts {
				fmt.Printf("  %-16s %s — spread %.3f vs baseline %.3f at %s\n",
					v.Kind, v.URL, v.Spread, v.Baseline, v.T.Format(time.RFC3339))
			}
		}
	default:
		log.Fatalf("unknown watch subcommand %q (want add, list or rm)", sub)
	}
}

func runHistory(args []string) {
	fs := flag.NewFlagSet("history", flag.ExitOnError)
	admin := fs.String("admin", "", "admin UI address (required; sheriffd prints it)")
	histURL := fs.String("url", "", "product URL (with -country: print that series)")
	country := fs.String("country", "", "vantage country code")
	raw := fs.Bool("json", false, "print raw JSON")
	fs.Parse(args)
	if *admin == "" {
		log.Fatal("need -admin")
	}
	if *histURL == "" || *country == "" {
		var out struct {
			Series []struct {
				URL     string `json:"url"`
				Country string `json:"country"`
				Points  int    `json:"points"`
			} `json:"series"`
		}
		getAdminJSON(*admin, "/history.json", "/history.json", &out, *raw)
		if *raw {
			return
		}
		fmt.Printf("%-50s %-8s %s\n", "URL", "COUNTRY", "POINTS")
		for _, s := range out.Series {
			fmt.Printf("%-50s %-8s %d\n", s.URL, s.Country, s.Points)
		}
		return
	}
	var out struct {
		Points []struct {
			T     time.Time `json:"t"`
			Price float64   `json:"price"`
		} `json:"points"`
	}
	q := "/history.json?url=" + url.QueryEscape(*histURL) + "&country=" + url.QueryEscape(*country)
	getAdminJSON(*admin, q, q, &out, *raw)
	if *raw {
		return
	}
	fmt.Printf("%s @ %s — %d points\n", *histURL, *country, len(out.Points))
	for _, p := range out.Points {
		fmt.Printf("  %s  %10.2f\n", p.T.Format(time.RFC3339), p.Price)
	}
}

// runExport streams a deployment's snapshot to a file — the paper's
// MySQL-dump workflow for moving a corpus into an analysis run.
func runExport(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	admin := fs.String("admin", "", "admin UI address (required; sheriffd prints it)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if *admin == "" {
		log.Fatal("need -admin")
	}
	resp, err := adminClient().Get("http://" + *admin + "/snapshot")
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
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	admin := fs.String("admin", "", "admin UI address (required; sheriffd prints it)")
	in := fs.String("f", "", "snapshot file (required)")
	fs.Parse(args)
	if *admin == "" || *in == "" {
		log.Fatal("need -admin and -f")
	}
	f, err := os.Open(*in)
	if err != nil {
		log.Fatalf("open %s: %v", *in, err)
	}
	defer f.Close()
	resp, err := adminClient().Post("http://"+*admin+"/snapshot", "application/json", f)
	if err != nil {
		log.Fatalf("import: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("import: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	fmt.Printf("imported: %s\n", strings.TrimSpace(string(body)))
}
