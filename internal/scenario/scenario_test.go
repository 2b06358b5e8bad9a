package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden matrix snapshot instead of comparing:
//
//	go test ./internal/scenario -run TestMatrixPassesAndSeedStable -update
var update = flag.Bool("update", false, "rewrite testdata/golden/matrix.json")

// goldenMatrix is the committed snapshot of the canonical matrix run.
var goldenMatrix = filepath.Join("testdata", "golden", "matrix.json")

// TestMatrixPassesAndSeedStable runs the full canonical matrix twice
// and holds the headline contracts at once: every scenario passes all
// four assertion families (accuracy floors, byte reconciliation,
// bounded recovery, leak-free), identically-seeded runs produce
// byte-identical reports, and run 1 equals the golden snapshot byte for
// byte. The engine is a pure function of its seed, so any drift in an
// accuracy, a latency or a byte count is a behaviour change: review it
// and regenerate with -update.
func TestMatrixPassesAndSeedStable(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	rep1 := RunMatrix(Params{})
	if len(rep1.Scenarios) < 8 {
		t.Fatalf("matrix has %d scenarios, want at least 8", len(rep1.Scenarios))
	}
	for _, s := range rep1.Scenarios {
		if !s.Pass {
			t.Errorf("scenario %q failed: %v", s.Name, s.Failures)
		}
	}
	if !rep1.Pass() {
		t.Fatal("matrix did not pass; skipping stability comparison")
	}

	rep2 := RunMatrix(Params{})
	b1, err := rep1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := rep2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("identically-seeded matrix runs diverge:\n--- run 1\n%s\n--- run 2\n%s", b1, b2)
	}

	// The pool widths follow the host's core count; everything else is
	// a function of the seed.
	snap := *rep1
	snap.Workers = nil
	got, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenMatrix), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenMatrix, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenMatrix, len(got))
		return
	}
	want, err := os.ReadFile(goldenMatrix)
	if err != nil {
		t.Fatalf("missing golden snapshot (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("matrix report drifted from %s.\n%s\nIf the change is intended, regenerate with -update and review the diff.",
			goldenMatrix, firstDiff(want, got))
	}
}

// firstDiff points at the first line where two renderings diverge.
func firstDiff(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("first difference at line %d:\n  golden: %s\n  got:    %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("outputs differ in length: golden %d lines, got %d", len(w), len(g))
}

// TestScenarioWorkerWidthIdentity reruns scenarios at a forced pool
// width and requires byte-identical results — the repo's any-width
// determinism contract, held under fault injection. Exercised
// explicitly (not just via RunMatrix) so single-CPU machines still
// prove a multi-worker width.
func TestScenarioWorkerWidthIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-width reruns in -short mode")
	}
	for _, name := range []string{"churn", "burst-loss", "reorder"} {
		sc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		seq := Run(sc, Params{Workers: 1})
		wide := Run(sc, Params{Workers: 3})
		if !seq.Pass {
			t.Fatalf("scenario %q failed at width 1: %v", name, seq.Failures)
		}
		if !resultsIdentical(seq, wide) {
			t.Errorf("scenario %q diverges between widths 1 and 3:\n  w1: %+v\n  w3: %+v", name, seq, wide)
		}
	}
}

func TestSeedChangesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario reruns in -short mode")
	}
	// Different seeds must reach different draws somewhere — guards
	// against a seed that is silently ignored.
	sc, err := ByName("burst-loss")
	if err != nil {
		t.Fatal(err)
	}
	a := Run(sc, Params{Seed: 42})
	b := Run(sc, Params{Seed: 43})
	if resultsIdentical(a, b) {
		t.Fatal("changing the master seed changed nothing")
	}
}

func TestByNameAndNames(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("matrix names %v, want at least 8", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate scenario name %q", n)
		}
		seen[n] = true
		if _, err := ByName(n); err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
	}
	for _, want := range []string{"churn", "straggler", "burst-loss", "partition",
		"bandwidth-flap", "reorder", "duplicate", "truncate", "combined"} {
		if !seen[want] {
			t.Errorf("matrix is missing scenario %q", want)
		}
	}
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Fatal("ByName accepted an unknown scenario")
	}
}

func TestReportPassEmpty(t *testing.T) {
	rep := NewReport(Params{}, []int{1})
	if rep.Pass() {
		t.Fatal("empty report counts as passing")
	}
	rep.Scenarios = append(rep.Scenarios, Result{Name: "a", Pass: true}, Result{Name: "b"})
	if rep.Pass() {
		t.Fatal("report with a failed scenario counts as passing")
	}
}
