package scenario

import (
	"fmt"
	"runtime"

	"edgehd/internal/netsim"
	"edgehd/internal/rng"
)

// The named scenario matrix. Each entry is a declarative script over
// the engine's virtual clock (inject at FaultFrom, measure mid-window,
// clear at FaultTo, probe recovery after); floors are calibrated
// against the default Params, where every figure is deterministic.

// catchUp scripts the online path a rejoined node uses to resynchronize:
// route a few samples through confidence-routed inference, broadcast
// negative feedback for each misclassification, then propagate the
// accumulated residuals through the tree.
func catchUp(e *Env) error {
	live := liveEntries(e)
	if len(live) == 0 {
		return fmt.Errorf("scenario: catch-up: no live end nodes")
	}
	n := 8
	if n > len(e.Data.TestX) {
		n = len(e.Data.TestX)
	}
	for i := 0; i < n; i++ {
		r, err := e.Sys.Infer(e.Data.TestX[i], live[i%len(live)])
		if err != nil {
			return fmt.Errorf("catch-up infer %d: %w", i, err)
		}
		if r.Class != e.Data.TestY[i] {
			if _, err := e.Sys.NegativeFeedbackBroadcast(live[i%len(live)], e.Data.TestX[i], r.Class); err != nil {
				return fmt.Errorf("catch-up feedback %d: %w", i, err)
			}
		}
	}
	if _, err := e.Sys.PropagateResiduals(); err != nil {
		return fmt.Errorf("catch-up residuals: %w", err)
	}
	return nil
}

// passPlans gives every slot a pass-through plan.
func passPlans(int) Plan { return PassPlan }

// latencyEqual compares two assembly latencies up to float64 rounding:
// the two measurements subtract different departure offsets from the
// simulated finish time, so identical transfer schedules can differ in
// the last few bits.
func latencyEqual(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	m := a
	if b > m {
		m = b
	}
	return diff <= 1e-9*m
}

func churnScenario() Scenario {
	return Scenario{
		Name: "churn",
		Note: "leaf and gateway depart mid-run, rejoin with online catch-up",
		Inject: func(e *Env) error {
			clean := e.Sys.InferCommBytes(e.Topo.Central)
			if err := e.Sys.Depart(e.Leaf(1)); err != nil {
				return err
			}
			gws := e.Gateways()
			if err := e.Sys.Depart(gws[len(gws)-1]); err != nil {
				return err
			}
			if down := e.Sys.InferCommBytes(e.Topo.Central); down >= clean {
				return fmt.Errorf("scenario: comm bytes %d did not shrink from %d with subtrees down", down, clean)
			}
			return nil
		},
		Clear: func(e *Env) error {
			if err := e.Sys.Rejoin(e.Leaf(1)); err != nil {
				return err
			}
			gws := e.Gateways()
			if err := e.Sys.Rejoin(gws[len(gws)-1]); err != nil {
				return err
			}
			return catchUp(e)
		},
		CleanFloor:    0.80,
		FaultFloor:    0.50,
		RecoveryFloor: 0.70,
		Extra: func(e *Env, r *Result) []string {
			var fails []string
			if e.Sys.Departed(e.Leaf(1)) {
				fails = append(fails, "leaf still departed after clear")
			}
			return fails
		},
	}
}

func stragglerScenario() Scenario {
	return Scenario{
		Name: "straggler",
		Note: "one gateway's links run 40x slow; latency stretches, accuracy holds",
		Inject: func(e *Env) error {
			return e.Topo.Net.SetDelayFactor(e.Gateways()[0], 40)
		},
		Clear: func(e *Env) error {
			return e.Topo.Net.SetDelayFactor(e.Gateways()[0], 1)
		},
		CleanFloor:    0.80,
		FaultFloor:    0.80,
		RecoveryFloor: 0.80,
		Extra: func(e *Env, r *Result) []string {
			var fails []string
			if r.LatencyFault <= r.LatencyClean {
				fails = append(fails, fmt.Sprintf("straggler latency %g not above clean %g",
					r.LatencyFault, r.LatencyClean))
			}
			if !latencyEqual(r.LatencyRecovered, r.LatencyClean) {
				fails = append(fails, fmt.Sprintf("recovered latency %g != clean %g",
					r.LatencyRecovered, r.LatencyClean))
			}
			if r.AccFault != r.AccClean {
				fails = append(fails, fmt.Sprintf("straggler changed accuracy: %g vs %g",
					r.AccFault, r.AccClean))
			}
			return fails
		},
	}
}

func burstLossScenario() Scenario {
	return Scenario{
		Name: "burst-loss",
		Note: "windowed 60% loss on every leaf uplink, 25% on gateway uplinks",
		Inject: func(e *Env) error {
			for _, id := range e.Topo.EndNodes {
				if err := e.Topo.Net.ScheduleLoss(id, netsim.Window{From: FaultFrom, To: FaultTo, Value: 0.6}); err != nil {
					return err
				}
			}
			for _, gw := range e.Gateways() {
				if err := e.Topo.Net.ScheduleLoss(gw, netsim.Window{From: FaultFrom + 2, To: FaultTo - 2, Value: 0.25}); err != nil {
					return err
				}
			}
			return nil
		},
		CleanFloor:    0.80,
		FaultFloor:    0.40,
		RecoveryFloor: 0.80,
		Extra:         recoversExactly,
	}
}

func partitionScenario() Scenario {
	return Scenario{
		Name: "partition",
		Note: "full loss window on one gateway uplink: its subtree is unreachable",
		Inject: func(e *Env) error {
			return e.Topo.Net.ScheduleLoss(e.Gateways()[0],
				netsim.Window{From: FaultFrom, To: FaultTo, Value: 1})
		},
		CleanFloor:    0.80,
		FaultFloor:    0.35,
		RecoveryFloor: 0.80,
		Extra:         recoversExactly,
	}
}

// recoversExactly asserts a purely windowed fault leaves no residue:
// the first post-window probe reproduces the clean figure bit for bit.
func recoversExactly(e *Env, r *Result) []string {
	var fails []string
	if r.RecoverySteps != 1 {
		fails = append(fails, fmt.Sprintf("windowed fault took %d probes to recover, want 1", r.RecoverySteps))
	}
	if r.AccRecovered != r.AccClean {
		fails = append(fails, fmt.Sprintf("recovered accuracy %g != clean %g after window expiry",
			r.AccRecovered, r.AccClean))
	}
	return fails
}

func bandwidthFlapScenario() Scenario {
	return Scenario{
		Name: "bandwidth-flap",
		Note: "gateway uplink bandwidth oscillates 25x; a second downlink is asymmetric-slow",
		Inject: func(e *Env) error {
			gws := e.Gateways()
			windows := []netsim.Window{
				{From: 10, To: 12, Value: 0.04},
				{From: 12, To: 14, Value: 0.5},
				{From: 14, To: 16, Value: 0.04},
				{From: 16, To: 20, Value: 0.5},
			}
			for _, w := range windows {
				if err := e.Topo.Net.ScheduleBandwidth(gws[0], netsim.DirUp, w); err != nil {
					return err
				}
			}
			// Asymmetry: the other gateway's downlink crawls while its
			// uplink — the direction query assembly uses — is untouched.
			return e.Topo.Net.ScheduleBandwidth(gws[len(gws)-1], netsim.DirDown,
				netsim.Window{From: FaultFrom, To: FaultTo, Value: 0.04})
		},
		CleanFloor:    0.80,
		FaultFloor:    0.80,
		RecoveryFloor: 0.80,
		Extra: func(e *Env, r *Result) []string {
			var fails []string
			if r.LatencyFault <= r.LatencyClean {
				fails = append(fails, fmt.Sprintf("throttled latency %g not above clean %g",
					r.LatencyFault, r.LatencyClean))
			}
			if !latencyEqual(r.LatencyRecovered, r.LatencyClean) {
				fails = append(fails, fmt.Sprintf("recovered latency %g != clean %g",
					r.LatencyRecovered, r.LatencyClean))
			}
			if r.AccFault != r.AccClean {
				fails = append(fails, fmt.Sprintf("bandwidth fault changed accuracy: %g vs %g",
					r.AccFault, r.AccClean))
			}
			return fails
		},
	}
}

func reorderScenario() Scenario {
	return Scenario{
		Name: "reorder",
		Note: "worker frames delivered in a seeded shuffled order; global model unchanged",
		ConnPlan: func(e *Env, r *rng.Source) (func(int) Plan, *Gate) {
			order := make([]int, e.P.ClusterWorkers)
			for i := range order {
				order[i] = i
			}
			for i := len(order) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				order[i], order[j] = order[j], order[i]
			}
			return passPlans, NewGate(order)
		},
		SameGlobal:    true,
		CleanFloor:    0.80,
		FaultFloor:    0.80,
		RecoveryFloor: 0.80,
		Extra: func(e *Env, r *Result) []string {
			var fails []string
			if r.ConnFramesIn != int64(e.P.ClusterWorkers) {
				fails = append(fails, fmt.Sprintf("conns saw %d frames, want one per worker (%d)",
					r.ConnFramesIn, e.P.ClusterWorkers))
			}
			if r.ConnFramesOut != r.ConnFramesIn || r.ConnBytesOut != r.ConnBytesIn {
				fails = append(fails, fmt.Sprintf("reorder-only conns changed traffic: %d/%d frames, %d/%d bytes",
					r.ConnFramesOut, r.ConnFramesIn, r.ConnBytesOut, r.ConnBytesIn))
			}
			return fails
		},
	}
}

func duplicateScenario() Scenario {
	return Scenario{
		Name: "duplicate",
		Note: "every pushed frame is emitted twice; the aggregator merges each model once",
		ConnPlan: func(e *Env, r *rng.Source) (func(int) Plan, *Gate) {
			return func(int) Plan {
				return func(int) Action { return Duplicate }
			}, nil
		},
		SameGlobal:    true,
		CleanFloor:    0.80,
		FaultFloor:    0.80,
		RecoveryFloor: 0.80,
		Extra: func(e *Env, r *Result) []string {
			var fails []string
			if r.ConnFramesOut != 2*r.ConnFramesIn || r.ConnBytesOut != 2*r.ConnBytesIn {
				fails = append(fails, fmt.Sprintf("duplicating conns emitted %d frames/%d bytes for %d/%d in, want exactly double",
					r.ConnFramesOut, r.ConnBytesOut, r.ConnFramesIn, r.ConnBytesIn))
			}
			return fails
		},
	}
}

func truncateScenario() Scenario {
	return Scenario{
		Name: "truncate",
		Note: "slot 0's push is cut mid-frame and its conn dies; the round fails, a clean retry matches the clean global",
		ConnPlan: func(e *Env, r *rng.Source) (func(int) Plan, *Gate) {
			return func(slot int) Plan {
				if slot == 0 {
					return func(int) Action { return Truncate }
				}
				return PassPlan
			}, nil
		},
		RoundMustFail: true,
		CleanFloor:    0.80,
		FaultFloor:    0.80,
		RecoveryFloor: 0.80,
		Extra: func(e *Env, r *Result) []string {
			var fails []string
			if !r.RoundFailed {
				fails = append(fails, "truncated round did not fail")
			}
			if r.ConnFramesIn != int64(e.P.ClusterWorkers) {
				fails = append(fails, fmt.Sprintf("conns saw %d frames, want one per worker (%d)",
					r.ConnFramesIn, e.P.ClusterWorkers))
			}
			return fails
		},
	}
}

func combinedScenario() Scenario {
	return Scenario{
		Name: "combined",
		Note: "churn + burst loss + straggler + bandwidth throttle + duplicated frames at once",
		Inject: func(e *Env) error {
			gws := e.Gateways()
			if err := e.Sys.Depart(e.Leaf(2)); err != nil {
				return err
			}
			if err := e.Topo.Net.ScheduleLoss(e.Leaf(0),
				netsim.Window{From: FaultFrom, To: FaultTo, Value: 0.3}); err != nil {
				return err
			}
			if err := e.Topo.Net.SetDelayFactor(gws[len(gws)-1], 15); err != nil {
				return err
			}
			return e.Topo.Net.ScheduleBandwidth(gws[0], netsim.DirUp,
				netsim.Window{From: FaultFrom, To: FaultTo, Value: 0.2})
		},
		ConnPlan: func(e *Env, r *rng.Source) (func(int) Plan, *Gate) {
			return func(slot int) Plan {
				if slot == 1 {
					return func(int) Action { return Duplicate }
				}
				return PassPlan
			}, nil
		},
		SameGlobal: true,
		Clear: func(e *Env) error {
			gws := e.Gateways()
			if err := e.Sys.Rejoin(e.Leaf(2)); err != nil {
				return err
			}
			if err := e.Topo.Net.SetDelayFactor(gws[len(gws)-1], 1); err != nil {
				return err
			}
			return catchUp(e)
		},
		CleanFloor:    0.80,
		FaultFloor:    0.35,
		RecoveryFloor: 0.70,
		Extra: func(e *Env, r *Result) []string {
			var fails []string
			if r.LatencyFault <= r.LatencyClean {
				fails = append(fails, fmt.Sprintf("combined fault latency %g not above clean %g",
					r.LatencyFault, r.LatencyClean))
			}
			return fails
		},
	}
}

// Matrix returns the full scenario matrix in its canonical order.
func Matrix() []Scenario {
	return []Scenario{
		churnScenario(),
		stragglerScenario(),
		burstLossScenario(),
		partitionScenario(),
		bandwidthFlapScenario(),
		reorderScenario(),
		duplicateScenario(),
		truncateScenario(),
		combinedScenario(),
	}
}

// ByName resolves one scenario from the matrix.
func ByName(name string) (Scenario, error) {
	for _, sc := range Matrix() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
}

// Names lists the matrix's scenario names in order.
func Names() []string {
	var out []string
	for _, sc := range Matrix() {
		out = append(out, sc.Name)
	}
	return out
}

// matrixWidths returns the pool widths a matrix run must agree across:
// the sequential path and the machine's full width.
func matrixWidths() []int {
	widths := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		widths = append(widths, n)
	}
	return widths
}

// RunMatrix runs every scenario at pool width 1 and again at
// GOMAXPROCS, requires the results to be byte-identical — the repo's
// any-width determinism contract, now under fault injection — and
// returns the report. Width divergence is recorded as a failure on the
// affected scenario, never a panic.
func RunMatrix(p Params) *Report {
	p = p.withDefaults()
	widths := matrixWidths()
	rep := NewReport(p, widths)
	for _, sc := range Matrix() {
		base := p
		base.Workers = widths[0]
		r := Run(sc, base)
		for _, w := range widths[1:] {
			alt := p
			alt.Workers = w
			r2 := Run(sc, alt)
			if !resultsIdentical(r, r2) {
				r.failf("result at pool width %d diverges from width %d", w, widths[0])
				r.Pass = false
			}
		}
		rep.Scenarios = append(rep.Scenarios, r)
	}
	return rep
}
