// Package measurement implements the Price $heriff's Measurement server
// (paper Sects. 3.2, 3.5 and 10.5): it receives a price-check job from the
// browser add-on, fans the product-page fetch out to every Infrastructure
// Proxy Client and to the Peer Proxy Clients near the initiator, locates
// the price in each returned copy with the Tags Path, detects and converts
// currencies, stores everything in the Database server (full HTML for the
// initiator's copy, line diffs for the rest — the DiffStorage module), and
// serves incremental results to the polling add-on.
package measurement

import (
	"fmt"
	"strconv"
	"strings"
)

// maxDiffCells bounds the longest-common-subsequence table of one diff
// (int32 cells, so 4 MiB): a check diffs every vantage's copy at once, and
// page sizes are the shop's to choose. Two copies whose differing middles
// multiply past it — over a thousand changed lines against over a thousand
// — are stored as skip-the-middle plus literal lines instead.
const maxDiffCells = 1 << 20

// Diff encodes other relative to base as a compact line-based edit script
// (the DiffStorage module of Sect. 10.5: the initiator's page is stored in
// full; every proxy copy is stored as its difference). The script is a
// sequence of ops:
//
//	=N   copy the next N lines of base
//	-N   skip the next N lines of base
//	+txt append the literal line txt
//
// Apply(base, Diff(base, other)) == other for all inputs, and below
// maxDiffCells the script copies as many base lines as any script can.
func Diff(base, other string) []string {
	return diffLines(strings.Split(base, "\n"), other)
}

// diffLines is Diff against a base already split into lines — a check
// splits the initiator's page once and diffs every copy against it. Copies
// of one product page differ from the base in a few lines, so the lines
// they share at the front and at the back are matched in place, without
// splitting other, and only the middle that is left goes through the
// quadratic longest-common-subsequence table.
func diffLines(a []string, other string) []string {
	n, m := len(a), strings.Count(other, "\n")+1

	// Common prefix: other[off:] starts at line pre.
	pre, off := 0, 0
	for pre < n && pre < m {
		end := strings.IndexByte(other[off:], '\n')
		if end < 0 {
			end = len(other) - off
		}
		if other[off:off+end] != a[pre] {
			break
		}
		pre++
		off = min(off+end+1, len(other))
	}
	// Common suffix of what the prefix left: other[off:stop] is the middle.
	suf, stop := 0, len(other)
	for suf < n-pre && suf < m-pre {
		start := off + strings.LastIndexByte(other[off:stop], '\n') + 1
		if other[start:stop] != a[n-1-suf] {
			break
		}
		suf++
		stop = max(start-1, off)
	}
	am, bm := n-pre-suf, m-pre-suf

	script := make([]string, 0, 2+am+bm)
	if pre > 0 {
		script = append(script, "="+strconv.Itoa(pre))
	}
	if am > 0 || bm > 0 {
		var b []string
		if bm > 0 {
			b = strings.Split(other[off:stop], "\n")
		}
		script = appendMiddle(script, a[pre:pre+am], b)
	}
	if suf > 0 {
		script = append(script, "="+strconv.Itoa(suf))
	}
	return script
}

// appendMiddle appends the edit script that turns lines a into lines b,
// which share neither their first nor their last line.
func appendMiddle(script, a, b []string) []string {
	n, m := len(a), len(b)
	if n == 0 || m == 0 || m > maxDiffCells/n {
		// Nothing to align, or too much to afford aligning.
		if n > 0 {
			script = append(script, "-"+strconv.Itoa(n))
		}
		for _, line := range b {
			script = append(script, "+"+line)
		}
		return script
	}
	// lcs[i*w+j] is the length of the longest common subsequence of a[i:]
	// and b[j:].
	w := m + 1
	lcs := make([]int32, (n+1)*w)
	for i := n - 1; i >= 0; i-- {
		row, below := lcs[i*w:(i+1)*w], lcs[(i+1)*w:(i+2)*w]
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				row[j] = below[j+1] + 1
			} else if below[j] >= row[j+1] {
				row[j] = below[j]
			} else {
				row[j] = row[j+1]
			}
		}
	}
	flush := func(op byte, k int) {
		if k > 0 {
			script = append(script, string(op)+strconv.Itoa(k))
		}
	}
	i, j := 0, 0
	copyRun, skipRun := 0, 0
	for i < n && j < m {
		switch {
		case a[i] == b[j]:
			flush('-', skipRun)
			skipRun = 0
			copyRun++
			i++
			j++
		case lcs[(i+1)*w+j] >= lcs[i*w+j+1]:
			flush('=', copyRun)
			copyRun = 0
			skipRun++
			i++
		default:
			flush('=', copyRun)
			copyRun = 0
			flush('-', skipRun)
			skipRun = 0
			script = append(script, "+"+b[j])
			j++
		}
	}
	flush('=', copyRun)
	flush('-', skipRun+n-i)
	for ; j < m; j++ {
		script = append(script, "+"+b[j])
	}
	return script
}

// Apply reconstructs the other document from base and a Diff script.
func Apply(base string, script []string) (string, error) {
	a := strings.Split(base, "\n")
	var out []string
	pos := 0
	for _, op := range script {
		if op == "" {
			return "", fmt.Errorf("measurement: empty diff op")
		}
		switch op[0] {
		case '=':
			k, err := strconv.Atoi(op[1:])
			if err != nil || pos+k > len(a) {
				return "", fmt.Errorf("measurement: bad copy op %q", op)
			}
			out = append(out, a[pos:pos+k]...)
			pos += k
		case '-':
			k, err := strconv.Atoi(op[1:])
			if err != nil || pos+k > len(a) {
				return "", fmt.Errorf("measurement: bad skip op %q", op)
			}
			pos += k
		case '+':
			out = append(out, op[1:])
		default:
			return "", fmt.Errorf("measurement: unknown diff op %q", op)
		}
	}
	return strings.Join(out, "\n"), nil
}

// DiffSize returns the byte size of an edit script — what the DiffStorage
// module saves compared to storing the full page.
func DiffSize(script []string) int {
	total := 0
	for _, op := range script {
		total += len(op) + 1
	}
	return total
}
