// Command bench is EdgeHD's one benchmark: six named workloads, nine
// end-to-end metrics reported by every workload, and a per-layer ledger
// measured from outside the program by timing calls into each layer's
// public functions. README.md is the glossary; BENCHMARK.json is the
// contract a driver reads.
//
// Usage, from the root of a checkout:
//
//	go run ./bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	go run ./bench -selfcheck [-seed N] [-seconds S]
//
// Without -workload every workload runs in turn. -trace 0 (the default)
// is the untraced pass that yields the end-to-end metrics; -trace 1 is
// the traced pass that yields the per-layer metrics and writes
// bench/out/trace-<workload>.json. Every metric is printed by name with
// its unit, and the last line of standard output of each run is one JSON
// object {correct, attempted, failed, metrics}. The exit code is 1 when
// a run's outputs fail the oracle or too many operations fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 8

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all of them in turn)")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	out := fs.String("out", "", "also write the results, keyed by workload, to this JSON file")
	selfcheck := fs.Bool("selfcheck", false, "run every workload under two seeds and compare the end-to-end metrics with their bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	sc := scale{seconds: *seconds, setups: 3, setupSeconds: 2.5, div: 1}
	if *selfcheck {
		return selfCheck(os.Stdout, *seed, sc)
	}

	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	results := make(map[string]result, len(selected))
	incorrect := 0
	for _, w := range selected {
		pass, defs := measure, endToEnd
		if *trace == 1 {
			pass, defs = ledger, perLayer
		}
		res, err := pass(w, *seed, sc)
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		results[w.name] = res
		if !res.Correct {
			incorrect++
		}
		printTable(os.Stdout, w.name, defs, res)
		if err := printJSONLine(os.Stdout, res); err != nil {
			return err
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d of %d runs failed the oracle or the failure bound", incorrect, len(selected))
	}
	return nil
}
