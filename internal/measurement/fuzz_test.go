package measurement

import (
	"testing"
)

// FuzzDiffApply: the DiffStorage invariant Apply(base, Diff(base, other))
// == other must hold for arbitrary documents, with a script that copies as
// many base lines as the full-table reference does.
func FuzzDiffApply(f *testing.F) {
	for _, p := range diffSeeds {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, base, other string) {
		checkDiff(t, base, other)
	})
}

// FuzzApplyGarbage: arbitrary scripts must error or succeed cleanly, never
// panic or read out of bounds.
func FuzzApplyGarbage(f *testing.F) {
	f.Add("a\nb\nc", "=2\n-1\n+x")
	f.Add("base", "=999")
	f.Add("", "?")
	f.Fuzz(func(t *testing.T, base, rawScript string) {
		var script []string
		start := 0
		for i := 0; i <= len(rawScript); i++ {
			if i == len(rawScript) || rawScript[i] == '\n' {
				script = append(script, rawScript[start:i])
				start = i + 1
			}
		}
		Apply(base, script) // must not panic
	})
}
