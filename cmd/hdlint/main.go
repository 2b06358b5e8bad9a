// Command hdlint runs EdgeHD's domain-specific static analysis over the
// module: determinism (det-rand and its call-graph extension
// det-rand-transitive, map-order), concurrency hygiene (goroutine-leak,
// lock-across-io), panic policy, error-string style, log style and the
// telemetry nil-receiver contract. It is part of the tier-1 gate
// (`make lint`, included in `make check`) and exits non-zero on any
// diagnostic so regressions fail CI.
//
// Usage:
//
//	hdlint [-json] [-C dir] [-rules a,b] [-list] [packages]
//
// The package arguments are accepted for familiarity (`./...`) but the
// whole module is always analyzed — the rules are module-wide
// invariants. -rules narrows the run to a comma-separated subset of
// rule names; -list prints the active rules and exits. -json emits
// machine-readable diagnostics; the default output is one
// `file:line:col: rule: message` line per violation.
//
// Exit codes: 0 clean, 1 diagnostics reported, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"edgehd/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the JSON output shape.
type report struct {
	Module      string            `json:"module"`
	Diagnostics []lint.Diagnostic `json:"diagnostics"`
	Count       int               `json:"count"`
}

// run executes the CLI against the given argument list and streams,
// returning the process exit code. Factored this way so the CLI table
// tests can drive it without forking.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit diagnostics as JSON")
		dir     = fs.String("C", ".", "directory inside the module to lint")
		list    = fs.Bool("list", false, "list the active rules and exit")
		rules   = fs.String("rules", "", "comma-separated rule names to run (default: all)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	mod, err := lint.LoadModule(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "hdlint: %v\n", err)
		return 2
	}
	cfg := lint.Default(mod.Path)

	if *rules != "" {
		byName := make(map[string]lint.Rule, len(cfg.Rules))
		for _, r := range cfg.Rules {
			byName[r.Name()] = r
		}
		var keep []lint.Rule
		var unknown []string
		for _, name := range strings.Split(*rules, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if r, ok := byName[name]; ok {
				keep = append(keep, r)
			} else {
				unknown = append(unknown, name)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			fmt.Fprintf(stderr, "hdlint: unknown rule(s) %s (see -list)\n", strings.Join(unknown, ", "))
			return 2
		}
		cfg.Rules = keep
	}

	if *list {
		for _, r := range cfg.Rules {
			fmt.Fprintf(stdout, "%-20s %s\n", r.Name(), r.Doc())
		}
		return 0
	}

	diags := lint.Run(mod, cfg)
	if diags == nil {
		diags = []lint.Diagnostic{} // a clean run encodes as [], not null
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{Module: mod.Path, Diagnostics: diags, Count: len(diags)}); err != nil {
			fmt.Fprintf(stderr, "hdlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s\n", d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stdout, "hdlint: %d diagnostic(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
