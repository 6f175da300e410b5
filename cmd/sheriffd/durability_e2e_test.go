package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// Durability proof, across real OS processes: boot sheriffd with a data
// dir and a fast recurring watch, wait until the watch has produced a
// few acknowledged series points, SIGKILL the daemon (no shutdown path
// runs), then restart it on the same data dir and require the history
// endpoint to return the exact acknowledged series.
func TestDurabilitySurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	root, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	moduleDir := strings.TrimSpace(string(root))
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "sheriffd")
	build := exec.Command("go", "build", "-o", bin, "pricesheriff/cmd/sheriffd")
	build.Dir = moduleDir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build sheriffd: %v\n%s", err, out)
	}
	dataDir := filepath.Join(tmp, "data")

	// -fsync always: every acknowledged write is on disk before the
	// insert returns, so nothing the first run reported may vanish.
	startDaemon := func() (*exec.Cmd, string) {
		t.Helper()
		daemon := exec.Command(bin,
			"-servers", "1", "-domains", "40", "-users", "4", "-seed", "3",
			"-data-dir", dataDir, "-fsync", "always",
			"-watch", "chegg.com", "-watch-interval", "300ms")
		stdout, err := daemon.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		daemon.Stderr = os.Stderr
		if err := daemon.Start(); err != nil {
			t.Fatal(err)
		}
		adminRe := regexp.MustCompile(`admin api:\s+(\S+)`)
		adminCh := make(chan string, 1)
		go func() {
			scanner := bufio.NewScanner(stdout)
			for scanner.Scan() {
				if m := adminRe.FindStringSubmatch(scanner.Text()); m != nil {
					adminCh <- m[1]
					// Keep draining so the daemon never blocks on stdout.
					for scanner.Scan() {
					}
					return
				}
			}
		}()
		select {
		case addr := <-adminCh:
			return daemon, addr
		case <-time.After(30 * time.Second):
			daemon.Process.Kill()
			t.Fatal("sheriffd did not print its admin address")
			return nil, ""
		}
	}

	daemon, admin := startDaemon()
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()

	// Wait for the watch to produce at least 3 points on some series.
	type seriesInfo struct {
		URL     string `json:"url"`
		Country string `json:"country"`
		Points  int    `json:"points"`
	}
	var series seriesInfo
	deadline := time.Now().Add(90 * time.Second)
	for {
		var list struct {
			Series []seriesInfo `json:"series"`
		}
		if err := getJSON(admin, "/history.json", &list); err == nil {
			for _, s := range list.Series {
				if s.Points >= 3 {
					series = s
					break
				}
			}
		}
		if series.URL != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watch never accumulated 3 series points")
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Capture the acknowledged series and the watch metrics, then KILL.
	type point struct {
		T     time.Time `json:"t"`
		Price float64   `json:"price"`
	}
	var detail struct {
		Points []point `json:"points"`
	}
	q := "/history.json?url=" + url.QueryEscape(series.URL) + "&country=" + url.QueryEscape(series.Country)
	if err := getJSON(admin, q, &detail); err != nil {
		t.Fatalf("series detail: %v", err)
	}
	acked := detail.Points
	if len(acked) < 3 {
		t.Fatalf("series listing said %d points, detail returned %d", series.Points, len(acked))
	}
	metrics := getText(t, admin, "/metrics")
	for _, want := range []string{"sheriff_watch_runs_total", "sheriff_history_wal_bytes"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s:\n%s", want, metrics)
		}
	}

	if err := daemon.Process.Kill(); err != nil { // SIGKILL — no cleanup runs
		t.Fatal(err)
	}
	daemon.Wait()

	// Restart on the same data dir: recovery must replay every point the
	// first process acknowledged over HTTP.
	daemon2, admin2 := startDaemon()
	defer func() {
		daemon2.Process.Kill()
		daemon2.Wait()
	}()
	var recovered []point
	deadline = time.Now().Add(30 * time.Second)
	for {
		var detail2 struct {
			Points []point `json:"points"`
		}
		if err := getJSON(admin2, q, &detail2); err == nil && len(detail2.Points) >= len(acked) {
			recovered = detail2.Points
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted daemon never served the %d acknowledged points", len(acked))
		}
		time.Sleep(200 * time.Millisecond)
	}
	// The recovered watch keeps running, so the series may have grown —
	// but the acknowledged prefix must be byte-identical.
	for i, want := range acked {
		got := recovered[i]
		if !got.T.Equal(want.T) || got.Price != want.Price {
			t.Fatalf("point %d changed across SIGKILL: got (%v, %v), want (%v, %v)",
				i, got.T, got.Price, want.T, want.Price)
		}
	}
	// The watch itself was recovered, not just its data.
	var watches struct {
		Watches []struct {
			URL  string `json:"url"`
			Runs int    `json:"runs"`
		} `json:"watches"`
	}
	if err := getJSON(admin2, "/watches.json", &watches); err != nil {
		t.Fatal(err)
	}
	if len(watches.Watches) != 1 || watches.Watches[0].Runs < 3 {
		t.Fatalf("watch not recovered with its run history: %+v", watches.Watches)
	}
}

func getJSON(admin, path string, out any) error {
	resp, err := http.Get("http://" + admin + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func getText(t *testing.T, admin, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + admin + path)
	if err != nil {
		t.Fatalf("fetch %s: %v", path, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
