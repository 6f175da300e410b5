package main

import (
	"bufio"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tablesReport mirrors the admin UI's /tables.json payload.
type tablesReport struct {
	Tables []struct {
		Shard     string `json:"shard"`
		Name      string `json:"name"`
		Engine    string `json:"engine"`
		Rows      int64  `json:"rows"`
		DiskBytes int64  `json:"disk_bytes"`
		Runs      int    `json:"runs"`
	} `json:"tables"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
}

// Disk-engine durability proof, across real OS processes: boot sheriffd
// with -store-engine disk, a page cache deliberately smaller than the
// dataset, and tiny WAL segments so checkpoint cycles (which flush the
// disk engines) run constantly. Let watches accumulate more on-disk bytes
// than the cache can hold, SIGKILL the daemon, restart it on the same
// data dir, and require:
//
//   - every acknowledged series point survives, byte-identical;
//   - the cold tables come back on the disk engine with their rows;
//   - recovery replayed far fewer WAL records than the dataset holds
//     rows — the checkpoint carries only specs for disk tables, so
//     restart cost is bounded by the WAL tail, not by history volume.
func TestDiskEngineSurvivesSIGKILL(t *testing.T) {
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
	const pageCacheBytes = 1 << 20 // -page-cache-mb 1

	startDaemon := func() (*exec.Cmd, string) {
		t.Helper()
		daemon := exec.Command(bin,
			"-servers", "1", "-domains", "40", "-users", "4", "-seed", "3",
			"-data-dir", dataDir, "-fsync", "always",
			"-store-engine", "disk", "-page-cache-mb", "1",
			"-wal-segment-bytes", "32768",
			"-watch", "chegg.com,shop-0031.com", "-watch-interval", "200ms")
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

	// Wait until the disk-resident dataset outgrows the page cache AND at
	// least one checkpoint cycle ran (so the disk engines have flushed runs
	// and the WAL has been cut at least once).
	diskRows := func(rep *tablesReport) (rows, bytes int64) {
		for _, tb := range rep.Tables {
			if tb.Shard == "shard-0" && tb.Engine == "disk" {
				rows += tb.Rows
				bytes += tb.DiskBytes
			}
		}
		return rows, bytes
	}
	var preRows, preBytes int64
	deadline := time.Now().Add(120 * time.Second)
	for {
		var rep tablesReport
		if err := getJSON(admin, "/tables.json", &rep); err == nil {
			preRows, preBytes = diskRows(&rep)
			if preBytes > pageCacheBytes &&
				metricValue(getText(t, admin, "/metrics"), "sheriff_history_compactions_total") >= 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("dataset never outgrew the page cache with a checkpoint taken (disk rows %d, disk bytes %d)", preRows, preBytes)
		}
		time.Sleep(300 * time.Millisecond)
	}

	// Capture an acknowledged series to compare byte-for-byte after the
	// crash, exactly like the mem-engine durability test.
	type seriesInfo struct {
		URL     string `json:"url"`
		Country string `json:"country"`
		Points  int    `json:"points"`
	}
	type point struct {
		T     time.Time `json:"t"`
		Price float64   `json:"price"`
	}
	var series seriesInfo
	deadline = time.Now().Add(60 * time.Second)
	for series.URL == "" {
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
		if time.Now().After(deadline) {
			t.Fatal("watch never accumulated 3 series points")
		}
		time.Sleep(200 * time.Millisecond)
	}
	var detail struct {
		Points []point `json:"points"`
	}
	q := "/history.json?url=" + url.QueryEscape(series.URL) + "&country=" + url.QueryEscape(series.Country)
	if err := getJSON(admin, q, &detail); err != nil {
		t.Fatalf("series detail: %v", err)
	}
	acked := detail.Points

	if err := daemon.Process.Kill(); err != nil { // SIGKILL — no cleanup runs
		t.Fatal(err)
	}
	daemon.Wait()

	daemon2, admin2 := startDaemon()
	defer func() {
		daemon2.Process.Kill()
		daemon2.Wait()
	}()

	// Recovery must reattach every cold table on the disk engine with at
	// least the rows that were durable pre-kill (the watch keeps running,
	// so counts only grow).
	var rep2 tablesReport
	deadline = time.Now().Add(30 * time.Second)
	for {
		if err := getJSON(admin2, "/tables.json", &rep2); err == nil {
			if rows, _ := diskRows(&rep2); rows >= preRows {
				break
			}
		}
		if time.Now().After(deadline) {
			rows, bytes := diskRows(&rep2)
			t.Fatalf("restarted daemon never recovered the disk tables: %d rows / %d bytes, want >= %d rows", rows, bytes, preRows)
		}
		time.Sleep(200 * time.Millisecond)
	}
	for _, want := range []string{"responses", "history_points", "watches"} {
		found := false
		for _, tb := range rep2.Tables {
			if tb.Shard == "shard-0" && tb.Name == want && tb.Engine == "disk" {
				found = true
			}
		}
		if !found {
			t.Errorf("table %q not on the disk engine after restart: %+v", want, rep2.Tables)
		}
	}

	// The acknowledged prefix of the captured series is byte-identical.
	var detail2 struct {
		Points []point `json:"points"`
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		if err := getJSON(admin2, q, &detail2); err == nil && len(detail2.Points) >= len(acked) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted daemon never served the %d acknowledged points", len(acked))
		}
		time.Sleep(200 * time.Millisecond)
	}
	for i, want := range acked {
		got := detail2.Points[i]
		if !got.T.Equal(want.T) || got.Price != want.Price {
			t.Fatalf("point %d changed across SIGKILL: got (%v, %v), want (%v, %v)",
				i, got.T, got.Price, want.T, want.Price)
		}
	}

	// The bound the refactor exists for: replay cost ∝ WAL tail, not
	// dataset. The first run checkpointed at least once, so the second
	// boot replays only the records after the last cut — far fewer than
	// the dataset's total disk-resident rows.
	metrics2 := getText(t, admin2, "/metrics")
	replayed := metricValue(metrics2, "sheriff_history_wal_replayed_total")
	totalRows, _ := diskRows(&rep2)
	if replayed <= 0 {
		t.Fatalf("restart replayed no WAL records — the pre-kill state can't have been durable (metrics:\n%s)", metrics2)
	}
	if replayed >= totalRows {
		t.Errorf("recovery not bounded by the checkpoint: replayed %d WAL records for %d disk-resident rows", replayed, totalRows)
	}
	for _, want := range []string{"sheriff_engine_rows", "sheriff_engine_disk_bytes", "sheriff_engine_flushes_total"} {
		if !strings.Contains(metrics2, want) {
			t.Errorf("/metrics missing %s after disk-engine recovery", want)
		}
	}
}

// metricValue extracts an unlabeled counter/gauge value from Prometheus
// text exposition (0 if absent).
func metricValue(metrics, name string) int64 {
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := strings.TrimPrefix(line, name)
		if len(rest) == 0 || (rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		return int64(v)
	}
	return 0
}
