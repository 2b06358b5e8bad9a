package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkFixture writes a throwaway module (module path "edgehd", so the
// Default policy applies), loads it, and runs the full rule set.
func checkFixture(t *testing.T, files map[string]string) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	if _, ok := files["go.mod"]; !ok {
		files["go.mod"] = "module edgehd\n\ngo 1.21\n"
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	return Run(mod, Default("edgehd"))
}

// byRule filters diagnostics down to one rule.
func byRule(diags []Diagnostic, rule string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Rule == rule {
			out = append(out, d)
		}
	}
	return out
}

func TestDetRandFiresInDeterministicPackage(t *testing.T) {
	diags := byRule(checkFixture(t, map[string]string{
		"internal/core/det.go": `package core

import (
	"math/rand"
	"time"
)

func Jitter() float64 { return rand.Float64() }

func Stamp() int64 { return time.Now().UnixNano() }
`,
	}), "det-rand")
	if len(diags) != 2 {
		t.Fatalf("det-rand diagnostics = %d, want 2 (import + clock read): %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "math/rand") {
		t.Errorf("first diagnostic should flag the import, got %q", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "time.Now") {
		t.Errorf("second diagnostic should flag time.Now, got %q", diags[1].Message)
	}
}

func TestDetRandSilentOutsidePipeline(t *testing.T) {
	// The same code in a package outside DeterministicPackages is fine:
	// the contract only binds the numeric pipeline.
	diags := byRule(checkFixture(t, map[string]string{
		"internal/util/det.go": `package util

import (
	"math/rand"
	"time"
)

func Jitter() float64 { return rand.Float64() }

func Stamp() int64 { return time.Now().UnixNano() }
`,
	}), "det-rand")
	if len(diags) != 0 {
		t.Fatalf("det-rand fired outside the deterministic packages: %v", diags)
	}
}

func TestMapOrderFiresOnFloatAccumulation(t *testing.T) {
	diags := byRule(checkFixture(t, map[string]string{
		"internal/stats/sum.go": `package stats

func Sum(m map[string]float64) float64 {
	total := 0.0
	for k := range m {
		total += m[k]
	}
	return total
}
`,
	}), "map-order")
	if len(diags) != 1 {
		t.Fatalf("map-order diagnostics = %d, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "floating-point") {
		t.Errorf("diagnostic should name float accumulation, got %q", diags[0].Message)
	}
}

func TestMapOrderFiresOnValueAppend(t *testing.T) {
	diags := byRule(checkFixture(t, map[string]string{
		"internal/stats/values.go": `package stats

func Values(m map[string]int) []int {
	var vs []int
	for _, v := range m {
		vs = append(vs, v)
	}
	return vs
}
`,
	}), "map-order")
	if len(diags) != 1 {
		t.Fatalf("map-order diagnostics = %d, want 1: %v", len(diags), diags)
	}
}

func TestMapOrderSilentOnSortedKeyIdiom(t *testing.T) {
	// Collecting keys for a later sort is the fix the rule recommends;
	// it must not flag its own remedy.
	diags := byRule(checkFixture(t, map[string]string{
		"internal/stats/keys.go": `package stats

import "sort"

func Sum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0.0
	for _, k := range keys {
		total += m[k]
	}
	return total
}
`,
	}), "map-order")
	if len(diags) != 0 {
		t.Fatalf("map-order flagged the sanctioned sorted-key idiom: %v", diags)
	}
}

func TestPanicPolicyFires(t *testing.T) {
	diags := byRule(checkFixture(t, map[string]string{
		"internal/validate/v.go": `package validate

func MustPositive(n int) {
	if n <= 0 {
		panic("n must be positive")
	}
}
`,
	}), "panic-policy")
	if len(diags) != 1 {
		t.Fatalf("panic-policy diagnostics = %d, want 1: %v", len(diags), diags)
	}
}

func TestPanicPolicyAllowlistedKernel(t *testing.T) {
	// internal/hdc is allowlisted in the Default config: kernel guards
	// are sanctioned programmer-error panics.
	diags := byRule(checkFixture(t, map[string]string{
		"internal/hdc/guard.go": `package hdc

func mustSameDim(a, b int) {
	if a != b {
		panic("dimension mismatch")
	}
}

func Use(a, b int) { mustSameDim(a, b) }
`,
	}), "panic-policy")
	if len(diags) != 0 {
		t.Fatalf("panic-policy fired in allowlisted package: %v", diags)
	}
}

func TestDirectiveSuppresses(t *testing.T) {
	// A directive on the offending line or the line above suppresses the
	// named rule; naming a different rule does not.
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"same line", `package validate

func Must(ok bool) {
	if !ok {
		panic("invariant") //hdlint:allow panic-policy sanctioned guard
	}
}
`, 0},
		{"line above", `package validate

func Must(ok bool) {
	if !ok {
		//hdlint:allow panic-policy sanctioned guard
		panic("invariant")
	}
}
`, 0},
		{"wrong rule", `package validate

func Must(ok bool) {
	if !ok {
		panic("invariant") //hdlint:allow det-rand not the right rule
	}
}
`, 1},
		{"not a directive", `package validate

func Must(ok bool) {
	if !ok {
		panic("invariant") //hdlint:allowx panic-policy mangled prefix
	}
}
`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := byRule(checkFixture(t, map[string]string{
				"internal/validate/v.go": tc.src,
			}), "panic-policy")
			if len(diags) != tc.want {
				t.Fatalf("panic-policy diagnostics = %d, want %d: %v", len(diags), tc.want, diags)
			}
		})
	}
}

func TestErrStyle(t *testing.T) {
	diags := byRule(checkFixture(t, map[string]string{
		"internal/fail/f.go": `package fail

import (
	"errors"
	"fmt"
)

func Capitalized() error { return fmt.Errorf("fail: Bad input") }

func MissingPrefix() error { return errors.New("something broke") }

func UnwrappedArg(err error) error { return fmt.Errorf("fail: reading config: %v", err) }

func Wraps(err error) error { return fmt.Errorf("reading config: %w", err) }

func Acronym() error { return errors.New("fail: DSP slices exhausted") }

func Good() error { return errors.New("fail: bad input") }
`,
	}), "err-style")
	if len(diags) != 3 {
		t.Fatalf("err-style diagnostics = %d, want 3: %v", len(diags), diags)
	}
	for i, want := range []string{"lowercase", "should start with", "%w"} {
		if !strings.Contains(diags[i].Message, want) {
			t.Errorf("diagnostic %d = %q, want mention of %q", i, diags[i].Message, want)
		}
	}
}

func TestErrStyleSkipsMainPackages(t *testing.T) {
	diags := byRule(checkFixture(t, map[string]string{
		"cmd/tool/main.go": `package main

import "fmt"

func main() {
	fmt.Println(fmt.Errorf("Bad flag"))
}
`,
	}), "err-style")
	if len(diags) != 0 {
		t.Fatalf("err-style fired in a main package: %v", diags)
	}
}

func TestTelemetryNilFiresWithoutGuard(t *testing.T) {
	diags := byRule(checkFixture(t, map[string]string{
		"internal/telemetry/counter.go": `package telemetry

type Counter struct{ n int64 }

func (c *Counter) Add(d int64) { c.n += d }
`,
	}), "telemetry-nil")
	if len(diags) != 1 {
		t.Fatalf("telemetry-nil diagnostics = %d, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "Counter.Add") {
		t.Errorf("diagnostic should name the method, got %q", diags[0].Message)
	}
}

func TestTelemetryNilSatisfiedByGuardAndDelegation(t *testing.T) {
	diags := byRule(checkFixture(t, map[string]string{
		"internal/telemetry/counter.go": `package telemetry

type Counter struct{ n int64 }

func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.n += d
}

// Inc only delegates to Add, which carries the guard.
func (c *Counter) Inc() { c.Add(1) }
`,
	}), "telemetry-nil")
	if len(diags) != 0 {
		t.Fatalf("telemetry-nil fired on guarded/delegating methods: %v", diags)
	}
}

func TestTelemetryNilCoversCollector(t *testing.T) {
	// The runtime collector is an instrument type too: exported methods
	// touching receiver fields without a nil guard must be flagged.
	diags := byRule(checkFixture(t, map[string]string{
		"internal/telemetry/collector.go": `package telemetry

type Collector struct{ n int }

func (c *Collector) Collect() { c.n++ }

func (c *Collector) Guarded() {
	if c == nil {
		return
	}
	c.n++
}
`,
	}), "telemetry-nil")
	if len(diags) != 1 {
		t.Fatalf("telemetry-nil diagnostics = %d, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "Collector.Collect") {
		t.Errorf("diagnostic should name Collector.Collect, got %q", diags[0].Message)
	}
}

func TestLogStyleFiresInInstrumentedPackage(t *testing.T) {
	diags := byRule(checkFixture(t, map[string]string{
		"internal/cluster/noise.go": `package cluster

import (
	"fmt"
	"log"
)

func Noisy(acc float64) {
	log.Printf("round done")
	fmt.Println("round done")
	fmt.Printf("accuracy: %.1f%%\n", 100*acc)
}
`,
	}), "log-style")
	if len(diags) != 2 {
		t.Fatalf("log-style diagnostics = %d, want 2 (log.Printf + fmt.Println, not fmt.Printf): %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "log.Printf") {
		t.Errorf("first diagnostic should flag log.Printf, got %q", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "fmt.Println") {
		t.Errorf("second diagnostic should flag fmt.Println, got %q", diags[1].Message)
	}
}

func TestLogStyleCoversCmdBinaries(t *testing.T) {
	// The observability-aware cmd binaries are instrumented packages
	// too: their operational output must be structured.
	diags := byRule(checkFixture(t, map[string]string{
		"cmd/edgehd/main.go": `package main

import "log"

func main() {
	log.Println("starting")
}
`,
	}), "log-style")
	if len(diags) != 1 {
		t.Fatalf("log-style diagnostics = %d, want 1: %v", len(diags), diags)
	}
}

func TestLogStyleSilentOutsideInstrumentedPackages(t *testing.T) {
	// Examples, tools and un-instrumented packages may print freely.
	diags := byRule(checkFixture(t, map[string]string{
		"internal/util/print.go": `package util

import (
	"fmt"
	"log"
)

func Shout() {
	log.Printf("free-form")
	fmt.Println("free-form")
}
`,
	}), "log-style")
	if len(diags) != 0 {
		t.Fatalf("log-style fired outside the instrumented packages: %v", diags)
	}
}

func TestLogStyleDirectiveSuppresses(t *testing.T) {
	diags := byRule(checkFixture(t, map[string]string{
		"internal/cluster/boot.go": `package cluster

import "fmt"

func Banner() {
	fmt.Println("edgehd cluster") //hdlint:allow log-style banner precedes logger construction
}
`,
	}), "log-style")
	if len(diags) != 0 {
		t.Fatalf("log-style ignored the allow directive: %v", diags)
	}
}

func TestLoaderSkipsTestFiles(t *testing.T) {
	// _test.go files are outside hdlint's scope (test helpers may panic
	// freely), matching the loader's non-test package model.
	diags := checkFixture(t, map[string]string{
		"internal/validate/v.go": `package validate

func OK() bool { return true }
`,
		"internal/validate/v_test.go": `package validate

import "testing"

func TestOK(t *testing.T) {
	if !OK() {
		panic("Bad state")
	}
}
`,
	})
	if len(diags) != 0 {
		t.Fatalf("diagnostics reported from a _test.go file: %v", diags)
	}
}

func TestDiagnosticsSortedAndRelative(t *testing.T) {
	diags := checkFixture(t, map[string]string{
		"internal/validate/b.go": `package validate

func B() {
	panic("late file")
}
`,
		"internal/validate/a.go": `package validate

func A() {
	panic("early file")
}
`,
	})
	if len(diags) != 2 {
		t.Fatalf("diagnostics = %d, want 2: %v", len(diags), diags)
	}
	if diags[0].File != "internal/validate/a.go" || diags[1].File != "internal/validate/b.go" {
		t.Fatalf("diagnostics not sorted by module-relative file: %v", diags)
	}
	if !strings.HasPrefix(diags[0].String(), "internal/validate/a.go:4:") {
		t.Fatalf("String() = %q, want file:line:col prefix", diags[0].String())
	}
}

func TestRulesHaveNamesAndDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, rule := range Default("edgehd").Rules {
		name := rule.Name()
		if name == "" || rule.Doc() == "" {
			t.Errorf("rule %T missing name or doc", rule)
		}
		if seen[name] {
			t.Errorf("duplicate rule name %q", name)
		}
		seen[name] = true
	}
	for _, want := range []string{
		"det-rand", "det-rand-transitive", "map-order", "panic-policy",
		"err-style", "telemetry-nil", "log-style",
		"goroutine-leak", "lock-across-io",
	} {
		if !seen[want] {
			t.Errorf("default config missing rule %q", want)
		}
	}
}
