package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// higherIsBetter names the end-to-end metrics that improve upwards; every
// other one improves downwards.
var higherIsBetter = map[string]bool{"checks_per_s": true}

// selfCheck is the repeatability test of the benchmark itself: every
// workload runs 2n times on identical code, each run in a process of its own
// with a seed of its own, alternating between two sets so that slow drift of
// the host lands on both. The sets must then agree the way the benchmark's
// driver demands of two sets of runs: each metric's spread (interquartile
// range over median) within its bound, setup_s excepted, and the second
// set's median not worse than the first's by more than the bound.
func selfCheck(g *Grid, n, seconds int, out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	misses := 0
	fmt.Fprintf(out, "selfcheck: %d workloads x 2 sets x %d runs of %d s, same code throughout\n", len(g.Workloads), n, seconds)
	fmt.Fprintf(out, "%-18s %-22s %12s %8s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "iqr A%", "median B", "iqr B%", "B vs A%", "bound%", "")
	for _, w := range g.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			rep, err := runChild(exe, w.Name, int64(i+1), seconds)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("selfcheck: %s seed %d: %d of %d operations failed", w.Name, i+1, rep.Failed, rep.Attempted)
			}
			fmt.Fprintf(out, "# %s set %c seed %d:", w.Name, 'A'+i%2, i+1)
			for _, e := range endToEnd {
				v := rep.Metrics[e.Name].Value
				sets[i%2][e.Name] = append(sets[i%2][e.Name], v)
				fmt.Fprintf(out, " %s=%.6g", e.Name, v)
			}
			fmt.Fprintln(out)
		}
		for _, e := range endToEnd {
			a, b := sets[0][e.Name], sets[1][e.Name]
			q1a, medA, q3a := quartiles(a)
			q1b, medB, q3b := quartiles(b)
			spreadA, spreadB := (q3a-q1a)/medA, (q3b-q1b)/medB
			worse := medB/medA - 1
			if higherIsBetter[e.Name] {
				worse = -worse
			}
			bound := g.Bounds[e.Name]
			ok := worse <= bound && (e.Name == "setup_s" || (spreadA <= bound && spreadB <= bound))
			mark := "ok"
			if !ok {
				mark = "MISS"
				misses++
			}
			fmt.Fprintf(out, "%-18s %-22s %12.4f %8.2f %12.4f %8.2f %+8.2f %7.1f  %s\n",
				w.Name, e.Name, medA, spreadA*100, medB, spreadB*100, worse*100, bound*100, mark)
		}
	}
	if misses > 0 {
		return fmt.Errorf("selfcheck: %d metric/workload pairs outside their bound", misses)
	}
	fmt.Fprintln(out, "selfcheck: every metric of every workload inside its bound")
	return nil
}

// runChild performs one untraced run in a fresh process and parses its
// result line.
func runChild(exe, workload string, seed int64, seconds int) (*report, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("selfcheck: %s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("selfcheck: %s seed %d: result line: %w", workload, seed, err)
	}
	return &rep, nil
}
