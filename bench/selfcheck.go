package main

import (
	"fmt"
	"io"
)

// selfCheckRuns is how many runs each seed gets per workload. The runs
// of the two seeds alternate, so a drift in the machine's speed lands on
// both sides, and the medians are compared, as a gain claim would be.
const selfCheckRuns = 3

// selfCheck runs every workload's untraced pass on the same code under
// seed and seed+1, selfCheckRuns times each in alternation, and prints
// for every end-to-end metric how far the second seed's median sits from
// the first's against the metric's bound. It fails when any pair is
// further apart than its bound in either direction: a benchmark that
// cannot repeat itself cannot gate a change.
func selfCheck(w io.Writer, seed uint64, sc scale) error {
	fmt.Fprintf(w, "selfcheck: seeds %d and %d alternating, %d runs each, %.0f s measured per run; medians compared\n",
		seed, seed+1, selfCheckRuns, sc.seconds)
	exceeded := 0
	for _, wl := range workloads {
		var values [2]map[string][]float64
		var attempted, failed [2]int64
		for side := range values {
			values[side] = map[string][]float64{}
		}
		for run := 0; run < selfCheckRuns; run++ {
			for side := range values {
				res, err := measure(wl, seed+uint64(side), sc)
				if err != nil {
					return fmt.Errorf("workload %s seed %d: %w", wl.name, seed+uint64(side), err)
				}
				attempted[side] += res.Attempted
				failed[side] += res.Failed
				if !res.Correct {
					fmt.Fprintf(w, "  INCORRECT: seed %d run %d failed the oracle or the failure bound\n", seed+uint64(side), run)
					exceeded++
				}
				for _, d := range endToEnd {
					values[side][d.Name] = append(values[side][d.Name], res.Metrics[d.Name].Value)
				}
			}
		}
		fmt.Fprintf(w, "workload %s: failed %d of %d, and %d of %d\n", wl.name, failed[0], attempted[0], failed[1], attempted[1])
		for _, d := range endToEnd {
			a, b := median(values[0][d.Name]), median(values[1][d.Name])
			verdict := "ok"
			if !withinBound(d, a, b) || !withinBound(d, b, a) {
				verdict = "EXCEEDS BOUND"
				exceeded++
			}
			fmt.Fprintf(w, "  %-20s %14.6g %14.6g %-6s worse by %+7.2f%%  bound %5.1f%%  %s\n",
				d.Name, a, b, d.Unit, 100*worseBy(d, a, b), 100*d.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("selfcheck: %d comparisons exceed their bound", exceeded)
	}
	fmt.Fprintln(w, "selfcheck: every end-to-end metric of every workload repeats within its bound")
	return nil
}
