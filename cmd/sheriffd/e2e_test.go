package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// Two-process end-to-end: build the real binaries, boot sheriffd on TCP
// sockets, and drive a price check from a separate sheriffctl process —
// the add-on and the back-end in different OS processes, like the
// deployment.
func TestSheriffdSheriffctlEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	root, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	moduleDir := strings.TrimSpace(string(root))
	tmp := t.TempDir()

	for _, pkg := range []string{"sheriffd", "sheriffctl"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(tmp, pkg), "pricesheriff/cmd/"+pkg)
		cmd.Dir = moduleDir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}

	daemon := exec.Command(filepath.Join(tmp, "sheriffd"),
		"-servers", "1", "-domains", "40", "-users", "4", "-seed", "3")
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()

	// Parse the printed component addresses.
	addrRe := regexp.MustCompile(`(shops \(the web\)|coordinator|p2p relay broker):\s+(\S+)`)
	adminRe := regexp.MustCompile(`admin api:\s+(\S+)`)
	addrs := map[string]string{}
	scanner := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	ready := make(chan struct{})
	go func() {
		for scanner.Scan() {
			line := scanner.Text()
			if m := addrRe.FindStringSubmatch(line); m != nil {
				addrs[m[1]] = m[2]
			}
			if m := adminRe.FindStringSubmatch(line); m != nil {
				addrs["admin"] = m[1]
			}
			if strings.Contains(line, "Serving until interrupted") {
				close(ready)
				// Keep draining so the daemon never blocks on stdout.
				for scanner.Scan() {
				}
				return
			}
		}
	}()
	select {
	case <-ready:
	case <-deadline:
		t.Fatal("sheriffd did not come up")
	}
	for _, key := range []string{"shops (the web)", "coordinator", "p2p relay broker"} {
		if addrs[key] == "" {
			t.Fatalf("missing %s address in daemon output: %v", key, addrs)
		}
	}

	// List domains from a separate process.
	list := exec.Command(filepath.Join(tmp, "sheriffctl"),
		"-coord", addrs["coordinator"], "-shops", addrs["shops (the web)"],
		"-broker", addrs["p2p relay broker"], "-list")
	out, err := list.CombinedOutput()
	if err != nil {
		t.Fatalf("sheriffctl -list: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "chegg.com") {
		t.Fatalf("domain list missing chegg.com:\n%s", out)
	}

	// Run a price check as an external peer, under a distributed trace:
	// the client process owns the trace, the daemon's coordinator and
	// measurement server join it over the wire, and the assembled
	// cross-process tree prints after the result page.
	check := exec.Command(filepath.Join(tmp, "sheriffctl"),
		"-coord", addrs["coordinator"], "-shops", addrs["shops (the web)"],
		"-broker", addrs["p2p relay broker"],
		"-country", "ES", "-id", "e2e-peer", "-domain", "steampowered.com", "-trace")
	out, err = check.CombinedOutput()
	if err != nil {
		t.Fatalf("sheriffctl check: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"job-", "Variant", "Converted", "You"} {
		if !strings.Contains(text, want) {
			t.Errorf("check output missing %q:\n%s", want, text)
		}
	}
	// The check fanned out to the 30-IPC fleet: expect many result rows.
	if rows := strings.Count(text, "EUR "); rows < 20 {
		t.Errorf("only %d converted rows:\n%s", rows, text)
	}
	// The span tree: client-side protocol steps plus daemon-side spans
	// (proc-stamped) stitched across the two OS processes.
	for _, want := range []string{"schedule", "proc=coordinator", "fanout", "proc=measurement", "kind=ipc"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace output missing %q:\n%s", want, text)
		}
	}
	traceID := regexp.MustCompile(`tr-[0-9a-f]+-\d+`).FindString(text)
	if traceID == "" {
		t.Fatalf("no trace ID in check output:\n%s", text)
	}

	if addrs["admin"] == "" {
		t.Fatal("missing admin UI address in daemon output")
	}
	// The daemon's ring kept its side of the same trace: `sheriffctl
	// trace <id>` must resolve it over the admin UI. The daemon finishes
	// its trace just after answering the final result poll, so allow a
	// few retries for it to land in the completed ring.
	var traceOut string
	for attempt := 0; attempt < 50; attempt++ {
		traceCmd := exec.Command(filepath.Join(tmp, "sheriffctl"),
			"trace", "-admin", addrs["admin"], traceID)
		out, err = traceCmd.CombinedOutput()
		if err != nil {
			t.Fatalf("sheriffctl trace: %v\n%s", err, out)
		}
		traceOut = string(out)
		if strings.Contains(traceOut, traceID) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	for _, want := range []string{traceID, "fanout", "persist"} {
		if !strings.Contains(traceOut, want) {
			t.Errorf("sheriffctl trace missing %q:\n%s", want, traceOut)
		}
	}

	// And `sheriffctl logs -trace <id>` returns the daemon's structured
	// records for exactly this check.
	logsCmd := exec.Command(filepath.Join(tmp, "sheriffctl"),
		"logs", "-admin", addrs["admin"], "-level", "debug", "-trace", traceID)
	out, err = logsCmd.CombinedOutput()
	if err != nil {
		t.Fatalf("sheriffctl logs: %v\n%s", err, out)
	}
	for _, want := range []string{"check completed", "trace_id=" + traceID} {
		if !strings.Contains(string(out), want) {
			t.Errorf("sheriffctl logs missing %q:\n%s", want, out)
		}
	}

	// Another peer in the same country asks the same question moments
	// later: the add-on attaches to the finished job instead of fanning
	// out again. It is given a replica set whose first member is dead:
	// the client rotates past it to the live coordinator.
	again := exec.Command(filepath.Join(tmp, "sheriffctl"),
		"-coord", "127.0.0.1:1,"+addrs["coordinator"], "-shops", addrs["shops (the web)"],
		"-broker", addrs["p2p relay broker"],
		"-country", "ES", "-id", "e2e-peer-2", "-domain", "steampowered.com")
	out, err = again.CombinedOutput()
	if err != nil {
		t.Fatalf("second sheriffctl check: %v\n%s", err, out)
	}
	if !regexp.MustCompile(`attached to job \S*job-\S+ \(cached\)`).Match(out) {
		t.Errorf("second check of the same product was not answered from the cache:\n%s", out)
	}

	// A profile page is refused before anything is fetched.
	pii := exec.Command(filepath.Join(tmp, "sheriffctl"),
		"-coord", addrs["coordinator"], "-shops", addrs["shops (the web)"],
		"-broker", addrs["p2p relay broker"],
		"-country", "ES", "-id", "e2e-peer-3", "-url", "http://chegg.com/account/profile")
	out, err = pii.CombinedOutput()
	if err == nil {
		t.Fatalf("sheriffctl checked a PII-blacklisted URL:\n%s", out)
	}
	if !strings.Contains(string(out), "blacklist") {
		t.Errorf("the PII refusal does not name the blacklist:\n%s", out)
	}

	// The operator's views of the paper's Figs. 7 and 16 and of the
	// whitelist, rendered by sheriffctl from the admin UI's JSON.
	ctl := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(filepath.Join(tmp, "sheriffctl"), append(args, "-admin", addrs["admin"])...).CombinedOutput()
		if err != nil {
			t.Fatalf("sheriffctl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	if out := ctl("servers"); !regexp.MustCompile(`(?m)^Worker +Status +Jobs`).MatchString(out) || !strings.Contains(out, "online") {
		t.Errorf("sheriffctl servers:\n%s", out)
	}
	if out := ctl("peers"); !strings.Contains(out, "Peer ID") || strings.Count(out, "\n") < 5 {
		t.Errorf("sheriffctl peers does not list the daemon's four peers:\n%s", out)
	}
	if out := ctl("whitelist", "add", "newshop.example"); !strings.Contains(out, "sanctioned newshop.example") {
		t.Errorf("sheriffctl whitelist add:\n%s", out)
	}
	if out := ctl("servers", "add", "127.0.0.1:2"); !strings.Contains(out, "127.0.0.1:2") {
		t.Errorf("sheriffctl servers add: the new server is not listed:\n%s", out)
	}
}
