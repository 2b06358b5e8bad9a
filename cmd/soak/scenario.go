package main

import (
	"bytes"
	"fmt"
	"time"

	"edgehd/internal/scenario"
	"edgehd/internal/telemetry"
)

// Scenario soak modes: -scenario NAME cycles one named adversarial
// scenario, -matrix cycles the whole fault matrix. Every cycle must
// pass all of the engine's assertion families (accuracy floors, wire
// byte reconciliation, bounded recovery, per-run leak checks), and —
// because the engine is a pure function of its seed — every cycle's
// report must be byte-identical to the first: the soak loop
// doubles as a determinism burn-in. A soak-level leak detector samples
// across cycles on top of the engine's per-run detectors.

type scenarioSoakOpts struct {
	name     string // one scenario, or "" for the full matrix
	cycles   int
	duration time.Duration
	seed     uint64
	warmup   int
	log      *telemetry.Logger
}

func runScenarioSoak(o scenarioSoakOpts) error {
	params := scenario.Params{Seed: o.seed}
	runOnce := func() (*scenario.Report, error) {
		return scenario.RunMatrix(params), nil
	}
	if o.name != "" {
		sc, err := scenario.ByName(o.name)
		if err != nil {
			return err
		}
		runOnce = func() (*scenario.Report, error) {
			rep := scenario.NewReport(params, []int{1})
			rep.Scenarios = append(rep.Scenarios, scenario.Run(sc, params))
			return rep, nil
		}
	}

	reg := telemetry.New()
	det := telemetry.NewLeakDetector(reg, o.warmup)
	det.SampleStable()

	o.log.Info("scenario soak started", "scenario", o.name, "matrix", o.name == "",
		"cycles", o.cycles, "duration", o.duration.String(), "seed", o.seed)
	deadline := time.Now().Add(o.duration)
	var first []byte
	cycle := 0
	for {
		if o.cycles > 0 {
			if cycle >= o.cycles {
				break
			}
		} else if !time.Now().Before(deadline) {
			break
		}

		rep, err := runOnce()
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		for _, s := range rep.Scenarios {
			for _, f := range s.Failures {
				o.log.Error("scenario assertion failed", "cycle", cycle, "scenario", s.Name, "failure", f)
			}
		}
		if !rep.Pass() {
			return fmt.Errorf("cycle %d: scenario assertions failed", cycle)
		}

		enc, err := rep.Encode()
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		if first == nil {
			first = enc
		} else if !bytes.Equal(first, enc) {
			return fmt.Errorf("cycle %d: report diverged from cycle 0 under an identical seed", cycle)
		}

		cycle++
		det.SampleStable()
		o.log.Debug("scenario cycle complete", "cycle", cycle)
	}
	if first == nil {
		return fmt.Errorf("no scenario cycle completed within the time budget")
	}

	report := det.Report()
	o.log.Info("scenario soak finished", "cycles", cycle,
		"samples", report.Samples, "usable", report.Usable,
		"goroutine_drift", report.GoroutineDrift, "heap_drift_bytes", report.HeapDriftBytes)
	if report.Leaky() {
		return fmt.Errorf("drift detected after %d scenario cycles: %+d goroutines, %+d heap bytes beyond slack",
			cycle, report.GoroutineDrift, report.HeapDriftBytes)
	}
	if report.Insufficient {
		// The engine leak-checks every run internally (and those checks
		// gate Pass above); the soak-level verdict just needs more
		// cycles to exist.
		o.log.Warn("soak-level leak verdict skipped", "usable_samples", report.Usable,
			"needed", 4, "hint", "raise -cycles or lower -warmup")
	}

	fmt.Printf("scenario soak passed: %d cycle(s) of %s, byte-identical reports, wire bytes reconciled\n",
		cycle, describeScenarioMode(o.name))
	return nil
}

func describeScenarioMode(name string) string {
	if name == "" {
		return fmt.Sprintf("the %d-scenario matrix", len(scenario.Names()))
	}
	return fmt.Sprintf("scenario %q", name)
}
