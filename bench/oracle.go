package main

import (
	"errors"
	"fmt"

	"pricesheriff/internal/admit"
	"pricesheriff/internal/core"
)

// verdict classifies one finished check. Only valid counts towards goodput;
// every other verdict is a failed operation.
type verdict uint8

const (
	valid   verdict = iota
	failed          // the call returned an error and no usable result
	shed            // refused by admission control
	partial         // completed without every vantage point
	invalid         // completed, but a row is wrong
)

var verdictNames = [...]string{"valid", "failed", "shed", "partial", "invalid"}

func (v verdict) String() string { return verdictNames[v] }

// expect is what a complete check of one deployment looks like.
type expect struct {
	IPCs int
	PPCs int
	// StrategyFree reports whether the shop of a domain prices every
	// visitor alike (Shop.Strategy == nil): the ground truth that lets the
	// oracle demand equal prices without a reference pass.
	StrategyFree func(domain string) bool
}

// maxFlatSpread is the most max/min-1 may reach across the IPC rows of a
// shop without a pricing strategy: display rounding in a no-decimals
// currency moves a cheap product by up to ~0.4% either way.
const maxFlatSpread = 0.01

// judge is the validity oracle. A check is valid when it has the initiator
// row, one error-free row per IPC, the expected error-free PPC rows, a
// positive converted price everywhere and, on a shop without a pricing
// strategy, the same price from every IPC. Prices are not a pure function
// of the URL (A/B shops answer differently each time), so there is no
// reference pass to compare against.
func judge(res *core.CheckResult, err error, exp expect) (verdict, string) {
	if err != nil {
		if errors.Is(err, admit.ErrOverload) {
			return shed, err.Error()
		}
		if res == nil || len(res.Rows) == 0 {
			return failed, err.Error()
		}
		return partial, err.Error()
	}
	if res == nil {
		return failed, "no result"
	}
	var initiators, ipcs, ppcs int
	lo, hi := 0.0, 0.0
	for i, r := range res.Rows {
		if r.Err != "" {
			return invalid, fmt.Sprintf("row %s: %s", r.Source, r.Err)
		}
		if r.Converted <= 0 {
			return invalid, fmt.Sprintf("row %s: converted price %v", r.Source, r.Converted)
		}
		switch r.Kind {
		case "initiator":
			initiators++
		case "ipc":
			// A scan, not a set: this runs inside the measured phase, and
			// thirty-odd rows are cheaper to compare than a map is to build.
			for _, prev := range res.Rows[:i] {
				if prev.Kind == "ipc" && prev.Source == r.Source {
					return invalid, "duplicate row for " + r.Source
				}
			}
			if ipcs == 0 || r.Converted < lo {
				lo = r.Converted
			}
			if r.Converted > hi {
				hi = r.Converted
			}
			ipcs++
		case "ppc":
			ppcs++
		default:
			return invalid, "unknown row kind " + r.Kind
		}
	}
	if initiators != 1 {
		return invalid, fmt.Sprintf("%d initiator rows", initiators)
	}
	if ipcs < exp.IPCs || ppcs < exp.PPCs {
		return partial, fmt.Sprintf("%d/%d IPC rows, %d/%d PPC rows", ipcs, exp.IPCs, ppcs, exp.PPCs)
	}
	if ppcs > exp.PPCs {
		return invalid, fmt.Sprintf("%d PPC rows, want %d", ppcs, exp.PPCs)
	}
	if exp.StrategyFree != nil && exp.StrategyFree(res.Domain) && hi/lo-1 > maxFlatSpread {
		return invalid, fmt.Sprintf("IPC prices %.4f..%.4f on strategy-free %s", lo, hi, res.Domain)
	}
	return valid, ""
}
