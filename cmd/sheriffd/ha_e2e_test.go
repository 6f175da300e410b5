package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pricesheriff/internal/chaos"
	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/ha"
	"pricesheriff/internal/retry"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/transport"
)

// The kill/partition chaos suite: a three-replica coordinator control
// plane as real OS processes, driven through SIGKILL of the primary
// mid-burst, a symmetric partition of a standby, a heal, and a second
// kill — all under one fixed seed. Throughout, a partition-tolerant
// client keeps creating jobs; at the end every acknowledged job must
// still be completable on the final primary (zero lost checks), each
// failover must finish within a bounded window, and no term may have
// been claimed by two primaries (no split-brain).

const haSeed = 7

type haReplicaProc struct {
	self string // coordinator address (-ha-self)
	ctl  string // chaos control address
	dir  string // -ha-dir
	idx  int
	cmd  *exec.Cmd
}

// startReplicaProc boots one `sheriffd -coord-only` replica and waits
// for its readiness line, scraping the chaos control address.
func startReplicaProc(t *testing.T, bin, self, peers, dir string, idx int) *haReplicaProc {
	t.Helper()
	cmd := exec.Command(bin,
		"-coord-only", "-ha-self", self, "-peers", peers,
		"-ha-heartbeat", "50ms", "-ha-lease", "400ms",
		"-heartbeat-timeout", "5m", "-seed", strconv.Itoa(haSeed),
		"-ha-dir", dir, "-admin", "", "-chaos-ctl",
		"-chaos-seed", strconv.Itoa(100+idx), "-log-level", "error")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	r := &haReplicaProc{self: self, dir: dir, idx: idx, cmd: cmd}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "chaos control:"); i >= 0 {
				r.ctl = strings.TrimSpace(line[i+len("chaos control:"):])
			}
			if strings.Contains(line, "Serving until interrupted") {
				close(ready)
				for sc.Scan() { // keep draining
				}
				return
			}
		}
	}()
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		t.Fatalf("replica %s did not come up", self)
	}
	if r.ctl == "" {
		t.Fatalf("replica %s printed no chaos control address", self)
	}
	return r
}

// ctlCall steers one replica's chaos fabric over its control RPC.
func ctlCall(t *testing.T, ctlAddr, method, target string) {
	t.Helper()
	cli, err := transport.DialClient(transport.TCP{}, ctlAddr)
	if err != nil {
		t.Fatalf("dial chaos control %s: %v", ctlAddr, err)
	}
	defer cli.Close()
	var out string
	if err := cli.CallCtx(context.Background(), method, map[string]string{"addr": target}, &out); err != nil {
		t.Fatalf("%s(%s) via %s: %v", method, target, ctlAddr, err)
	}
}

func haStatus(addr string) (*ha.Status, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return ha.FetchStatus(ctx, transport.TCP{}, addr)
}

// waitPrimaryAmong polls the given replicas until one self-reports
// primary in a term ≥ minTerm, returning its address and status.
func waitPrimaryAmong(t *testing.T, addrs []string, minTerm uint64, timeout time.Duration) (string, *ha.Status) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var best *ha.Status
		for _, a := range addrs {
			st, err := haStatus(a)
			if err != nil || st.State != "primary" || st.Term < minTerm {
				continue
			}
			if best == nil || st.Term > best.Term {
				best = st
			}
		}
		if best != nil {
			return best.Self, best
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("no primary with term >= %d among %v within %v", minTerm, addrs, timeout)
	return "", nil
}

func TestHAChaosKillAndPartitionEndToEnd(t *testing.T) {
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

	// Reserve three loopback addresses for the fixed replica set.
	addrs := make([]string, 3)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	peers := strings.Join(addrs, ",")
	reps := map[string]*haReplicaProc{}
	for i, a := range addrs {
		reps[a] = startReplicaProc(t, bin, a, peers, filepath.Join(tmp, fmt.Sprintf("r%d", i)), i)
	}

	primAddr, primSt := waitPrimaryAmong(t, addrs, 1, 20*time.Second)

	// The partition-tolerant client: it learns the primary from redirects
	// and rotates past dead replicas under retry/backoff.
	cli, err := coordinator.DialCoordinatorCluster(transport.TCP{}, addrs,
		retry.Policy{MaxAttempts: 6, BaseDelay: 50 * time.Millisecond, MaxDelay: 500 * time.Millisecond}, haSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const fakeMS = "ms-fake:1" // never dialed: the burst only creates jobs
	if err := cli.RegisterServer(fakeMS); err != nil {
		t.Fatalf("register server: %v", err)
	}
	// Every replica derives the same whitelist from the shared seed.
	dom := shop.NewMall(shop.MallConfig{Seed: haSeed, NumDomains: 60, NumLocationPD: 20, NumAlexa: 10}).Domains()[0]

	// The burst: create jobs continuously across all chaos below. Only
	// acknowledged IDs count — an error during failover is acceptable, a
	// lost acknowledged job is not. Failed rounds re-assert the (softly
	// replicated) server registration for the post-failover primary.
	var mu sync.Mutex
	var acked []string
	stopBurst := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopBurst:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			job, err := cli.NewJobCtx(ctx, dom, "e2e-burst")
			cancel()
			if err != nil {
				cli.RegisterServer(fakeMS)
				time.Sleep(50 * time.Millisecond)
				continue
			}
			mu.Lock()
			acked = append(acked, job.JobID)
			mu.Unlock()
			time.Sleep(10 * time.Millisecond)
		}
	}()
	ackedLen := func() int { mu.Lock(); defer mu.Unlock(); return len(acked) }
	waitAcked := func(n int) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for ackedLen() < n {
			if time.Now().After(deadline) {
				t.Fatalf("only %d jobs acked, want >= %d", ackedLen(), n)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitAcked(5)

	// Chaos round 1: SIGKILL the primary mid-burst at a seeded instant.
	killer := chaos.NewKiller(haSeed)
	time.Sleep(killer.Delay(100*time.Millisecond, 400*time.Millisecond))
	reps[primAddr].cmd.Process.Kill()
	killedAt := time.Now()
	var survivors []string
	for _, a := range addrs {
		if a != primAddr {
			survivors = append(survivors, a)
		}
	}
	newPrimAddr, newSt := waitPrimaryAmong(t, survivors, primSt.Term+1, 20*time.Second)
	if fo := time.Since(killedAt); fo > 15*time.Second {
		t.Errorf("failover after SIGKILL took %v", fo)
	}
	preKill := ackedLen()
	waitAcked(preKill + 5) // the burst flows again through the new primary

	// The killed replica rejoins as a standby (same address, same -ha-dir
	// so its persisted term/vote survive) and catches up over the log.
	old := reps[primAddr]
	old.cmd.Wait()
	reps[primAddr] = startReplicaProc(t, bin, primAddr, peers, old.dir, old.idx)

	// Chaos round 2: symmetric partition of the remaining original
	// standby — both fabrics block each other, so the standby misses the
	// lease and churns elections it cannot win while the primary keeps
	// quorum with the rejoined replica.
	standby := survivors[0]
	if standby == newPrimAddr {
		standby = survivors[1]
	}
	ctlCall(t, reps[standby].ctl, "chaos.block", newPrimAddr)
	ctlCall(t, reps[newPrimAddr].ctl, "chaos.block", standby)
	time.Sleep(1500 * time.Millisecond) // several lease timeouts under partition
	prePart := ackedLen()
	waitAcked(prePart + 5) // the majority side keeps serving throughout
	ctlCall(t, reps[standby].ctl, "chaos.heal", newPrimAddr)
	ctlCall(t, reps[newPrimAddr].ctl, "chaos.heal", standby)

	// Heal converges the set back to one primary (the partitioned
	// standby's inflated term may force one more election).
	curAddr, curSt := waitPrimaryAmong(t, addrs, newSt.Term, 30*time.Second)

	// Chaos round 3: kill the current primary again, still mid-burst.
	time.Sleep(killer.Delay(100*time.Millisecond, 400*time.Millisecond))
	reps[curAddr].cmd.Process.Kill()
	killedAt = time.Now()
	survivors = survivors[:0]
	for _, a := range addrs {
		if a != curAddr {
			survivors = append(survivors, a)
		}
	}
	_, finalSt := waitPrimaryAmong(t, survivors, curSt.Term+1, 20*time.Second)
	if fo := time.Since(killedAt); fo > 15*time.Second {
		t.Errorf("second failover took %v", fo)
	}
	preFinal := ackedLen()
	waitAcked(preFinal + 3)
	close(stopBurst)
	wg.Wait()

	mu.Lock()
	ids := append([]string(nil), acked...)
	mu.Unlock()

	// Checks flowed in several terms: job IDs are term-prefixed, so the
	// burst must have produced at least two distinct prefixes.
	prefixes := map[string]bool{}
	for _, id := range ids {
		if i := strings.Index(id, "-job-"); i > 0 {
			prefixes[id[:i]] = true
		}
	}
	if len(prefixes) < 2 {
		t.Errorf("acked jobs span %d term prefixes, want >= 2 (IDs: %v ...)", len(prefixes), ids[:min(len(ids), 5)])
	}

	// Zero lost checks: every acknowledged job was quorum-committed, so
	// the final primary must know it — JobDone must never say "unknown".
	for _, id := range ids {
		var doneErr error
		for attempt := 0; attempt < 20; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			doneErr = cli.JobDoneCtx(ctx, id)
			cancel()
			if doneErr == nil {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if doneErr != nil {
			t.Fatalf("acked job %s lost after failovers: %v", id, doneErr)
		}
	}

	// No split-brain: across every surviving replica's promotion history,
	// no term was claimed by two different primaries.
	claimed := map[uint64]string{}
	for _, a := range survivors {
		st, err := haStatus(a)
		if err != nil {
			continue
		}
		for _, term := range st.PromotedTerms {
			if prev, ok := claimed[term]; ok && prev != st.Self {
				t.Errorf("split brain: term %d claimed by both %s and %s", term, prev, st.Self)
			}
			claimed[term] = st.Self
		}
	}
	if len(claimed) == 0 {
		t.Error("no promotion history found on any survivor")
	}
	if finalSt.Failovers == 0 {
		t.Error("final primary reports zero failovers after two kills")
	}
}
