// Command sheriffctl is the Price $heriff "browser add-on" as a CLI: it
// joins a running sheriffd deployment over TCP as a real peer (so it both
// issues and serves price checks), then runs the five-step price check
// protocol for a product URL and prints the Fig. 2 result page.
//
// Usage:
//
//	sheriffctl -coord HOST:PORT[,HOST:PORT...] -shops HOST:PORT -broker HOST:PORT \
//	    [-country ES] [-id my-peer] [-timeout 30s] \
//	    (-url http://domain/product/sku | -domain chegg.com | -list)
//
// -coord takes one coordinator or the whole replica set of a replicated
// one: the check follows the primary across failovers and skips dead
// replicas. The check runs the same add-on client as the library
// (core.Addon): a URL on the PII blacklist is refused before anything is
// fetched, and the wait for rows never exceeds the 30 s interactive cap.
// The whole check runs under a context: -timeout bounds it, and Ctrl-C
// cancels it cleanly — the measurement server aborts its vantage fan-out
// and whatever rows arrived before the cut are still printed.
//
// Subcommands speak to a deployment's admin UI, whose views are JSON
// documents: each prints its document as a table, or with -json as is.
//
//	sheriffctl stats -admin HOST:PORT [-json]
//	sheriffctl servers [add ADDR] -admin HOST:PORT [-json]
//	sheriffctl peers -admin HOST:PORT [-json]
//	sheriffctl whitelist [add DOMAIN] -admin HOST:PORT [-json]
//	sheriffctl watch add|list|rm -admin HOST:PORT [-url URL] [-currency USD] [-json]
//	sheriffctl history -admin HOST:PORT [-url URL -country CC] [-json]
//	sheriffctl export -admin HOST:PORT [-o FILE]
//	sheriffctl import -admin HOST:PORT -f FILE
//	sheriffctl trace -admin HOST:PORT [TRACE_ID] [-min-ms 500] [-err] [-json]
//	sheriffctl logs -admin HOST:PORT [-level warn] [-trace TRACE_ID] [-json]
//	sheriffctl shards -admin HOST:PORT [-json]
//	sheriffctl tables -admin HOST:PORT [-json]
//	sheriffctl cluster status -peers HOST:PORT,HOST:PORT,... [-json]
//
// `cluster status` asks every coordinator replica over its HA RPC instead.
//
// With -trace, the check itself runs under a locally owned distributed
// trace and the assembled cross-process span tree (submit → schedule →
// fan-out → persist, with the Measurement server's spans stitched in) is
// printed after the result page.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pricesheriff/internal/browser"
	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/core"
	"pricesheriff/internal/geo"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/peer"
	"pricesheriff/internal/retry"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/transport"
)

// verbs are the subcommands; anything else is a price check.
var verbs = map[string]func(args []string){
	"stats":     runStats,
	"servers":   runServers,
	"peers":     runPeers,
	"whitelist": runWhitelist,
	"watch":     runWatch,
	"history":   runHistory,
	"export":    runExport,
	"import":    runImport,
	"trace":     runTrace,
	"logs":      runLogs,
	"cluster":   runCluster,
	"shards":    runShards,
	"tables":    runTables,
}

func main() {
	if len(os.Args) > 1 {
		if run, ok := verbs[os.Args[1]]; ok {
			run(os.Args[2:])
			return
		}
	}
	var (
		coordAddr  = flag.String("coord", "", "coordinator address, or the comma-separated replica set of a replicated coordinator (required)")
		shopsAddr  = flag.String("shops", "", "shop-world address (required)")
		brokerAddr = flag.String("broker", "", "p2p broker address (required)")
		country    = flag.String("country", "ES", "country this peer lives in")
		id         = flag.String("id", fmt.Sprintf("ctl-%d", os.Getpid()), "peer ID")
		url        = flag.String("url", "", "product URL to price-check")
		domain     = flag.String("domain", "", "check the first product of this domain")
		list       = flag.Bool("list", false, "list some retailer domains and exit")
		curr       = flag.String("currency", "EUR", "currency to convert results to")
		timeout    = flag.Duration("timeout", 3*time.Minute, "overall deadline for the price check (0 = none)")
		serve      = flag.Duration("serve", 0, "stay connected serving remote requests for this long after the check")
		showTrace  = flag.Bool("trace", false, "run the check under a distributed trace and print the assembled span tree")
	)
	flag.Parse()
	log.SetFlags(0)

	// Ctrl-C cancels the whole run; -timeout bounds the check itself.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *coordAddr == "" || *shopsAddr == "" || *brokerAddr == "" {
		log.Fatal("need -coord, -shops and -broker (sheriffd prints them)")
	}
	fabric := transport.TCP{}

	fetcher, err := shop.DialFetcher(fabric, *shopsAddr, 2)
	if err != nil {
		log.Fatalf("dial shops: %v", err)
	}
	defer fetcher.Close()

	if *list {
		domains, err := fetcher.Domains()
		if err != nil {
			log.Fatalf("list domains: %v", err)
		}
		for i, d := range domains {
			fmt.Println(d)
			if i >= 40 {
				fmt.Printf("... and %d more\n", len(domains)-i-1)
				break
			}
		}
		return
	}
	if *url == "" && *domain != "" {
		catalog, err := fetcher.Catalog(*domain)
		if err != nil || len(catalog) == 0 {
			log.Fatalf("catalog for %s: %v", *domain, err)
		}
		*url = catalog[0].URL
		fmt.Printf("checking %s (%s)\n", catalog[0].Name, *url)
	}
	if *url == "" {
		log.Fatal("need -url or -domain")
	}

	// Join the deployment as a peer: an IP in the requested country, a
	// browser, registration at the Coordinator, a relay connection.
	world := geo.NewWorld()
	ip, ok := world.RandomIP(rand.New(rand.NewSource(time.Now().UnixNano())), *country, "")
	if !ok {
		log.Fatalf("unknown country %q", *country)
	}
	br := browser.New(*id, ip.String(), "linux", "firefox")
	// The whole replica set: calls follow the primary's NotPrimary
	// redirects and rotate past dead replicas.
	coordCli, err := coordinator.DialCoordinatorCluster(fabric, strings.Split(*coordAddr, ","), retry.Policy{}, int64(os.Getpid()))
	if err != nil {
		log.Fatalf("dial coordinator: %v", err)
	}
	defer coordCli.Close()
	if _, err := coordCli.RegisterPeer(*id, ip.String()); err != nil {
		log.Fatalf("register peer: %v", err)
	}
	defer coordCli.UnregisterPeer(*id)

	node, err := peer.Connect(fabric, *brokerAddr, *id, br, fetcher, nil)
	if err != nil {
		log.Fatalf("join p2p network: %v", err)
	}
	defer node.Close()
	go node.Run()

	checkCtx := ctx
	if *timeout > 0 {
		var cancel context.CancelFunc
		checkCtx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// With -trace, this process owns the distributed trace: every RPC of
	// the check propagates its identity on the wire and the remote
	// components' spans are stitched back in for printing.
	var tracer *obs.Tracer
	if *showTrace {
		tracer = obs.NewTracer(4)
	}
	addon := core.NewAddon(fabric, coordCli, tracer)
	defer addon.Close()
	user := &core.User{ID: *id, Country: *country, Browser: br, Node: node}
	res, err := addon.Check(checkCtx, user, *url, *curr, 0, "")
	if res == nil {
		// Leave the deployment first: a peer left registered would be
		// handed other users' PPC requests it can no longer serve.
		coordCli.UnregisterPeer(*id)
		log.Fatalf("price check: %v", err)
	}
	if res.Source == coordinator.SourceFanout {
		fmt.Printf("job %s assigned to measurement server %s\n", res.JobID, res.Server)
	} else {
		fmt.Printf("attached to job %s (%s) on measurement server %s\n", res.JobID, res.Source, res.Server)
	}
	if err != nil {
		// Cut before the fan-out finished: the server's fan-out was
		// aborted, and whatever rows made it are printed.
		switch {
		case errors.Is(checkCtx.Err(), context.DeadlineExceeded):
			fmt.Printf("check timed out after %v; partial results:\n", *timeout)
		case checkCtx.Err() != nil:
			fmt.Println("check canceled; partial results:")
		default:
			fmt.Printf("check incomplete (%v); partial results:\n", err)
		}
	}
	fmt.Print(core.FormatResult(res))
	for _, tv := range tracer.Recent() {
		fmt.Println()
		printTrace(tv)
	}

	if *serve > 0 && ctx.Err() == nil {
		fmt.Printf("serving remote requests for %v ...\n", *serve)
		serveTimer := time.NewTimer(*serve)
		select {
		case <-serveTimer.C:
		case <-ctx.Done():
			serveTimer.Stop()
		}
		fmt.Printf("served %d remote page requests\n", node.Served())
	}
}
