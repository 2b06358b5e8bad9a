package scenario

import (
	"fmt"
	"net"

	"edgehd/internal/cluster"
	"edgehd/internal/core"
	"edgehd/internal/dataset"
	"edgehd/internal/hierarchy"
	"edgehd/internal/netsim"
	"edgehd/internal/rng"
	"edgehd/internal/telemetry"
)

// Params shapes one scenario run. The zero value selects the canonical
// smoke configuration that the golden matrix snapshot
// (testdata/golden/matrix.json) and the test suite share — per-scenario
// accuracy floors are calibrated against exactly this shape, so callers
// that change it are on their own for floor validity.
type Params struct {
	// Dataset name (see internal/dataset). Default "PDP".
	Dataset string
	// Dim is the central node's hypervector dimensionality. Default 2000.
	Dim int
	// Train caps the training samples. Default 200.
	Train int
	// Queries caps the test samples used for accuracy probes and the
	// routed-inference batch. Default 40.
	Queries int
	// Seed drives every random structure and fault draw. Default 42.
	Seed uint64
	// Workers is the hierarchy's parallel pool width. Results must be
	// byte-identical for any value; RunMatrix exercises that contract.
	// Default 1.
	Workers int
	// ClusterWorkers is the federated shard count. Default 3.
	ClusterWorkers int
	// ClusterDim is the cluster plane's hypervector dimensionality
	// (kept small: the plane exists to move frames, not to be
	// accurate). Default 256.
	ClusterDim int
	// RetrainEpochs of hierarchy retraining. Default 5.
	RetrainEpochs int
}

// DefaultParams is the canonical smoke shape (see Params).
func DefaultParams() Params { return Params{}.withDefaults() }

func (p Params) withDefaults() Params {
	if p.Dataset == "" {
		p.Dataset = "PDP"
	}
	if p.Dim == 0 {
		p.Dim = 2000
	}
	if p.Train == 0 {
		p.Train = 200
	}
	if p.Queries == 0 {
		p.Queries = 40
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	if p.Workers == 0 {
		p.Workers = 1
	}
	if p.ClusterWorkers == 0 {
		p.ClusterWorkers = 3
	}
	if p.ClusterDim == 0 {
		p.ClusterDim = 256
	}
	if p.RetrainEpochs == 0 {
		p.RetrainEpochs = 5
	}
	return p
}

// The virtual clock every scenario script runs on. Faults are injected
// at FaultFrom, measured mid-window at faultMid, cleared at FaultTo,
// and recovery is probed at FaultTo+1, FaultTo+2, … — netsim's windowed
// schedules (Window{From, To}) are written against these instants.
const (
	// FaultFrom is the virtual time at which Inject runs.
	FaultFrom = 10.0
	// FaultTo is the virtual time at which Clear runs and windowed
	// schedules are expected to have expired.
	FaultTo = 20.0
	// faultMid is the instant at which degraded behavior is measured.
	faultMid = 15.0
)

// Seed salts: each measurement derives its own stream from the master
// seed so inserting a phase never shifts another phase's draws.
const (
	saltAccClean   = 0xA11C_E000
	saltAccFault   = 0xFA01_7000
	saltAccRecover = 0xC0DE_0000
	saltConnPlan   = 0xD0_0DAD
)

// Env is the world a scenario script manipulates: the trained
// hierarchy, its simulated network, and the shared telemetry plane.
type Env struct {
	P      Params
	Spec   dataset.Spec
	Data   *dataset.Dataset
	Topo   *netsim.Topology
	Sys    *hierarchy.System
	Reg    *telemetry.Registry
	Tracer *telemetry.Tracer
}

// Gateways returns the internal nodes between central and the end
// nodes, in ascending id order (deduplicated parents of the end nodes).
func (e *Env) Gateways() []netsim.NodeID {
	seen := map[netsim.NodeID]bool{}
	var out []netsim.NodeID
	for _, id := range e.Topo.EndNodes {
		p := e.Topo.Net.Parent(id)
		if p == e.Topo.Central || p == netsim.InvalidNode || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Leaf returns the end node at position pos.
func (e *Env) Leaf(pos int) netsim.NodeID { return e.Topo.EndNodes[pos] }

// Scenario is one named adversarial script: a declarative description
// of which faults appear on the virtual clock, how the cluster plane's
// connections misbehave, and what the run must still guarantee.
type Scenario struct {
	// Name identifies the scenario in the registry, the golden matrix
	// snapshot and the -scenario flags.
	Name string
	// Note is a one-line description for reports.
	Note string
	// Inject applies the fault state at FaultFrom (node departures,
	// loss/bandwidth schedules, delay factors). Nil injects nothing.
	Inject func(*Env) error
	// Clear undoes non-windowed fault state at FaultTo (rejoins, delay
	// resets) and may script online catch-up learning. Windowed
	// schedules expire on their own. Nil clears nothing.
	Clear func(*Env) error
	// ConnPlan, when non-nil, supplies per-slot fault plans (and an
	// optional delivery gate) for the mid-fault cluster round; the
	// engine wraps each worker connection in a FaultConn built from
	// them. The rng source is seeded from the run's master seed.
	ConnPlan func(*Env, *rng.Source) (func(slot int) Plan, *Gate)
	// RoundMustFail asserts the mid-fault cluster round returns an
	// error — and that a clean retry afterwards reproduces the clean
	// round's global model exactly (bounded recovery on that plane).
	RoundMustFail bool
	// SameGlobal asserts the mid-fault round, despite its conn faults,
	// yields a global model bit-identical to the clean round's.
	SameGlobal bool
	// CleanFloor / FaultFloor / RecoveryFloor are the accuracy floors
	// for the clean baseline, the mid-fault probe, and the recovery
	// probes. Calibrated against DefaultParams.
	CleanFloor, FaultFloor, RecoveryFloor float64
	// RecoverWithin bounds recovery: some probe in the RecoverWithin
	// steps after FaultTo must reach RecoveryFloor. Default 3.
	RecoverWithin int
	// Extra runs scenario-specific assertions over the finished result
	// and returns failure strings (empty slice or nil when satisfied).
	Extra func(*Env, *Result) []string
}

// Result is one scenario's outcome. Every field is deterministic for a
// given (Scenario, Params) pair — byte-identical across runs and pool
// widths.
type Result struct {
	Name     string   `json:"name"`
	Note     string   `json:"note,omitempty"`
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`

	AccClean     float64 `json:"accuracy_clean"`
	AccFault     float64 `json:"accuracy_fault"`
	AccRecovered float64 `json:"accuracy_recovered"`
	// RecoverySteps is the 1-based index of the post-FaultTo probe that
	// first met RecoveryFloor (0 when none did).
	RecoverySteps int `json:"recovery_steps"`

	LatencyClean     float64 `json:"assemble_secs_clean"`
	LatencyFault     float64 `json:"assemble_secs_fault"`
	LatencyRecovered float64 `json:"assemble_secs_recovered"`

	TrainBytes      int64 `json:"train_bytes"`
	InferBytesClean int64 `json:"infer_wire_bytes_clean"`
	InferBytesFault int64 `json:"infer_wire_bytes_fault"`
	RoundBytesClean int64 `json:"round_push_bytes_clean"`
	RoundBytesFault int64 `json:"round_push_bytes_fault"`
	RoundFailed     bool  `json:"round_failed,omitempty"`

	ConnFramesIn  int64 `json:"conn_frames_in,omitempty"`
	ConnFramesOut int64 `json:"conn_frames_out,omitempty"`
	ConnBytesIn   int64 `json:"conn_bytes_in,omitempty"`
	ConnBytesOut  int64 `json:"conn_bytes_out,omitempty"`

	LeakSamples    int   `json:"leak_samples"`
	GoroutineDrift int   `json:"goroutine_drift"`
	HeapDriftBytes int64 `json:"heap_drift_bytes"`
}

func (r *Result) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// Run executes one scenario end to end and returns its result. It
// never returns an error: every violated invariant becomes an entry in
// Result.Failures so a matrix run reports all scenarios, not the first
// broken one.
func Run(sc Scenario, p Params) Result {
	p = p.withDefaults()
	if sc.RecoverWithin == 0 {
		sc.RecoverWithin = 3
	}
	res := Result{Name: sc.Name, Note: sc.Note}

	spec, err := dataset.ByName(p.Dataset)
	if err != nil {
		res.failf("dataset: %v", err)
		return res
	}
	d := spec.Generate(p.Seed, dataset.Options{MaxTrain: p.Train, MaxTest: p.Queries})
	topo, err := netsim.Tree(spec.EndNodes, 2, netsim.Wired1G())
	if err != nil {
		res.failf("topology: %v", err)
		return res
	}

	reg := telemetry.New()
	tracer := telemetry.NewTracer(4096, reg)
	// Retention-only tail sampler: every trace is head-admitted (the
	// reconciliation pass needs a trace id on each inference), while
	// slow and errored roots are additionally retained — the adversarial
	// phases then leave their worst traces inspectable after the run.
	tracer.SetSampler(telemetry.NewSampler(reg, telemetry.SamplerConfig{}))
	det := telemetry.NewLeakDetector(reg, 1)
	det.SampleStable()

	sys, err := hierarchy.BuildForDataset(topo, d, hierarchy.Config{
		TotalDim:      p.Dim,
		Seed:          p.Seed + 1,
		RetrainEpochs: p.RetrainEpochs,
		Workers:       p.Workers,
		Telemetry:     reg,
		Tracer:        tracer,
	})
	if err != nil {
		res.failf("build: %v", err)
		return res
	}
	tr, err := sys.Train(d.TrainX, d.TrainY)
	if err != nil {
		res.failf("train: %v", err)
		return res
	}
	res.TrainBytes = tr.Bytes
	det.SampleStable()

	env := &Env{P: p, Spec: spec, Data: d, Topo: topo, Sys: sys, Reg: reg, Tracer: tracer}

	// ---- Clean phase (t = 0): baseline every later phase is judged
	// against. Training residue on the network is reset first so the
	// latency figures start from quiet links.
	topo.Net.Reset()
	res.AccClean = sys.CorruptedAccuracy(topo.Central, d.TestX, d.TestY,
		rng.New(p.Seed^saltAccClean), 0)
	res.LatencyClean = assembleLatency(&res, env, 1.0)
	res.InferBytesClean = inferBatch(&res, env, "clean")
	cleanGlobal, cleanPush := runRound(&res, env, nil, nil, "clean")
	res.RoundBytesClean = cleanPush
	det.SampleStable()

	// ---- Inject at FaultFrom.
	if sc.Inject != nil {
		if err := sc.Inject(env); err != nil {
			res.failf("inject: %v", err)
		}
	}

	// ---- Fault phase (t = faultMid): the same measurements under the
	// injected fault state, plus the conn-faulted cluster round.
	res.AccFault = sys.CorruptedAccuracy(topo.Central, d.TestX, d.TestY,
		rng.New(p.Seed^saltAccFault), faultMid)
	res.LatencyFault = assembleLatency(&res, env, faultMid)
	res.InferBytesFault = inferBatch(&res, env, "fault")
	faultRound(&res, env, sc, cleanGlobal)
	det.SampleStable()

	// ---- Clear at FaultTo; windowed schedules expire on their own.
	if sc.Clear != nil {
		if err := sc.Clear(env); err != nil {
			res.failf("clear: %v", err)
		}
	}
	det.SampleStable()

	// ---- Recovery: accuracy must come back within RecoverWithin
	// probes of the fault clearing.
	for k := 1; k <= sc.RecoverWithin; k++ {
		acc := sys.CorruptedAccuracy(topo.Central, d.TestX, d.TestY,
			rng.New(p.Seed^saltAccRecover+uint64(k)), FaultTo+float64(k))
		res.AccRecovered = acc
		if acc >= sc.RecoveryFloor {
			res.RecoverySteps = k
			break
		}
	}
	if res.RecoverySteps == 0 {
		res.failf("accuracy %.4f never reached recovery floor %.4f within %d probes",
			res.AccRecovered, sc.RecoveryFloor, sc.RecoverWithin)
	}
	res.LatencyRecovered = assembleLatency(&res, env, FaultTo+float64(sc.RecoverWithin)+1)
	det.SampleStable()

	// ---- Leak verdict over the phase samples.
	rep := det.Report()
	res.LeakSamples = rep.Usable
	res.GoroutineDrift = rep.GoroutineDrift
	res.HeapDriftBytes = rep.HeapDriftBytes
	if rep.Insufficient {
		res.failf("leak detector: insufficient samples (%d usable)", rep.Usable)
	} else if rep.Leaky() {
		res.failf("leak detector: goroutine drift %d, heap drift %d bytes",
			rep.GoroutineDrift, rep.HeapDriftBytes)
	}

	// ---- Floors and scenario-specific assertions.
	if res.AccClean < sc.CleanFloor {
		res.failf("clean accuracy %.4f below floor %.4f", res.AccClean, sc.CleanFloor)
	}
	if res.AccFault < sc.FaultFloor {
		res.failf("fault accuracy %.4f below floor %.4f", res.AccFault, sc.FaultFloor)
	}
	if sc.Extra != nil {
		res.Failures = append(res.Failures, sc.Extra(env, &res)...)
	}
	res.Pass = len(res.Failures) == 0
	return res
}

// assembleLatency measures the query-assembly finish time of a full
// tree assembly departing at `at`, as a latency relative to departure.
func assembleLatency(res *Result, env *Env, at float64) float64 {
	finish, err := env.Sys.InferCommTime(env.Topo.Central, at)
	if err != nil {
		res.failf("assemble at t=%g: %v", at, err)
		return 0
	}
	return finish - at
}

// inferBatch routes every test sample through confidence-routed
// inference from a live end node and reconciles each trace: the
// infer_hop spans must count Escalations+1 and their wire-byte
// attributes must sum exactly to InferResult.WireBytes. Returns the
// total wire bytes of the batch.
func inferBatch(res *Result, env *Env, phase string) int64 {
	live := liveEntries(env)
	if len(live) == 0 {
		res.failf("%s infer: no live end nodes", phase)
		return 0
	}
	var total int64
	for i, x := range env.Data.TestX {
		r, err := env.Sys.Infer(x, live[i%len(live)])
		if err != nil {
			res.failf("%s infer sample %d: %v", phase, i, err)
			return total
		}
		if err := reconcileInfer(env.Tracer, r); err != nil {
			res.failf("%s infer sample %d: %v", phase, i, err)
			return total
		}
		total += r.WireBytes
	}
	return total
}

// liveEntries lists the end-node positions whose devices are up.
func liveEntries(env *Env) []int {
	var out []int
	for pos, id := range env.Topo.EndNodes {
		if !env.Topo.Net.IsDown(id) {
			out = append(out, pos)
		}
	}
	return out
}

// runRound executes one federated cluster round over the scenario's
// training shards, reconciles its spans (pushed bytes == aggregated
// bytes, broadcast bytes == pulled bytes), and returns the global model
// and the traced push-byte total.
func runRound(res *Result, env *Env, wrap func(int, net.Conn) net.Conn, onErr func(error), phase string) (*core.Model, int64) {
	shards := makeShards(env.Data, env.P.ClusterWorkers)
	_, seq := spansSince(env.Tracer, 0)
	cfg := cluster.Config{
		Features:       env.Spec.Features,
		Classes:        env.Spec.Classes,
		Dim:            env.P.ClusterDim,
		EncoderSeed:    env.P.Seed + 2,
		Tracer:         env.Tracer,
		WrapWorkerConn: wrap,
	}
	_, global, err := cluster.Federated(cfg, shards) //hdlint:allow det-rand-transitive cluster I/O deadlines read the clock; scenario outputs stay deterministic
	if err != nil {
		if onErr != nil {
			onErr(err)
			return nil, 0
		}
		res.failf("%s round: %v", phase, err)
		return nil, 0
	}
	spans, _ := spansSince(env.Tracer, seq)
	push, err := reconcileRound(spans)
	if err != nil {
		res.failf("%s round: %v", phase, err)
	}
	return global, push
}

// makeShards deals the training set round-robin into n shards.
func makeShards(d *dataset.Dataset, n int) []cluster.Shard {
	shards := make([]cluster.Shard, n)
	for i := range d.TrainX {
		s := &shards[i%n]
		s.X = append(s.X, d.TrainX[i])
		s.Y = append(s.Y, d.TrainY[i])
	}
	return shards
}

// faultRound runs the mid-fault cluster round with the scenario's conn
// plans interposed and checks every byte-accounting invariant that
// survives the faults.
func faultRound(res *Result, env *Env, sc Scenario, cleanGlobal *core.Model) {
	var wrap func(int, net.Conn) net.Conn
	conns := make([]*FaultConn, env.P.ClusterWorkers)
	if sc.ConnPlan != nil {
		plans, gate := sc.ConnPlan(env, rng.New(env.P.Seed^saltConnPlan))
		wrap = func(slot int, conn net.Conn) net.Conn {
			fc := NewFaultConn(conn, slot, plans(slot), gate)
			conns[slot] = fc
			return fc
		}
	}

	var roundErr error
	onErr := func(err error) { roundErr = err }
	global, push := runRound(res, env, wrap, onErr, "fault")
	res.RoundBytesFault = push
	res.RoundFailed = roundErr != nil

	var stats FaultStats
	for _, fc := range conns {
		if fc == nil {
			continue
		}
		s := fc.Stats()
		stats.FramesIn += s.FramesIn
		stats.FramesOut += s.FramesOut
		stats.BytesIn += s.BytesIn
		stats.BytesOut += s.BytesOut
		stats.Duplicated += s.Duplicated
		stats.Held += s.Held
		stats.Truncated += s.Truncated
		stats.Dropped += s.Dropped
		if err := reconcileConn(s); err != nil {
			res.failf("fault round conn: %v", err)
		}
	}
	res.ConnFramesIn = stats.FramesIn
	res.ConnFramesOut = stats.FramesOut
	res.ConnBytesIn = stats.BytesIn
	res.ConnBytesOut = stats.BytesOut

	if sc.RoundMustFail {
		if roundErr == nil {
			res.failf("fault round succeeded; scenario requires failure")
		}
		// Bounded recovery on the cluster plane: a clean retry must
		// succeed and reproduce the clean round's global model.
		retry, _ := runRound(res, env, nil, nil, "retry")
		if retry == nil {
			res.failf("retry round after failed fault round did not succeed")
		} else if !modelsEqual(retry, cleanGlobal) {
			res.failf("retry round global model differs from clean round")
		}
		return
	}
	if roundErr != nil {
		res.failf("fault round: %v", roundErr)
		return
	}
	if sc.SameGlobal {
		if global == nil || !modelsEqual(global, cleanGlobal) {
			res.failf("fault round global model differs from clean round")
		}
	}
}

// reconcileConn checks one fault conn's ledger. When every input byte
// arrived as whole frames, the emission side must account exactly:
// whole frames out at the common frame size, plus the half-size prefix
// each truncation emitted.
func reconcileConn(s FaultStats) error {
	if s.Passthrough || s.FramesIn == 0 {
		return nil
	}
	if s.BytesIn%s.FramesIn != 0 {
		// Heterogeneous frame sizes: the per-frame arithmetic below
		// does not apply, but conservation without faults still must.
		if s.Duplicated == 0 && s.Truncated == 0 && s.Dropped == 0 && s.Held == 0 &&
			s.BytesOut != s.BytesIn {
			return fmt.Errorf("scenario: pass-only conn emitted %d bytes for %d in", s.BytesOut, s.BytesIn)
		}
		return nil
	}
	frame := s.BytesIn / s.FramesIn
	want := s.FramesOut*frame + s.Truncated*(frame/2)
	if s.BytesOut != want {
		return fmt.Errorf("scenario: conn emitted %d bytes, ledger expects %d (%d frames of %d, %d truncated)",
			s.BytesOut, want, s.FramesOut, frame, s.Truncated)
	}
	return nil
}

// modelsEqual reports bit-identity of two models' class accumulators.
func modelsEqual(a, b *core.Model) bool {
	if a == nil || b == nil || a.Classes() != b.Classes() {
		return false
	}
	for c := 0; c < a.Classes(); c++ {
		av, bv := a.Class(c), b.Class(c)
		if av.Dim() != bv.Dim() {
			return false
		}
		for i := 0; i < av.Dim(); i++ {
			if av.Get(i) != bv.Get(i) {
				return false
			}
		}
	}
	return true
}

// spansSince returns the tracer spans with sequence numbers above seq,
// plus the new high-water mark.
func spansSince(tr *telemetry.Tracer, seq int64) ([]telemetry.Span, int64) {
	var out []telemetry.Span
	max := seq
	for _, s := range tr.Spans() {
		if s.Seq > seq {
			out = append(out, s)
		}
		if s.Seq > max {
			max = s.Seq
		}
	}
	return out, max
}

// reconcileInfer checks one inference's trace against its result: the
// infer_hop spans must count Escalations+1 and their wire-byte
// attributes must sum exactly to WireBytes.
func reconcileInfer(tr *telemetry.Tracer, res hierarchy.InferResult) error {
	if res.TraceID == 0 {
		return fmt.Errorf("scenario: inference recorded no trace")
	}
	var hops, sum int64
	for _, s := range tr.Trace(res.TraceID) {
		if s.Name != "infer_hop" {
			continue
		}
		v, ok := s.Int64Attr("wire_bytes")
		if !ok {
			return fmt.Errorf("scenario: trace %016x: infer_hop span without wire_bytes", res.TraceID)
		}
		hops++
		sum += v
	}
	if hops != int64(res.Escalations)+1 {
		return fmt.Errorf("scenario: trace %016x: %d infer_hop spans for %d escalations", res.TraceID, hops, res.Escalations)
	}
	if sum != res.WireBytes {
		return fmt.Errorf("scenario: trace %016x: hop wire bytes %d != result wire bytes %d", res.TraceID, sum, res.WireBytes)
	}
	return nil
}

// reconcileRound checks a cluster round's spans — pushed bytes must
// equal aggregated bytes, broadcast bytes must equal pulled bytes — and
// returns the pushed-byte total.
func reconcileRound(spans []telemetry.Span) (int64, error) {
	sums := map[string]int64{}
	counts := map[string]int64{}
	for _, s := range spans {
		if v, ok := s.Int64Attr("wire_bytes"); ok {
			sums[s.Name] += v
			counts[s.Name]++
		}
	}
	if counts["cluster_push"] == 0 {
		return 0, fmt.Errorf("scenario: no cluster_push spans recorded")
	}
	if sums["cluster_push"] != sums["cluster_aggregate"] {
		return sums["cluster_push"], fmt.Errorf("scenario: pushed %d bytes but aggregated %d",
			sums["cluster_push"], sums["cluster_aggregate"])
	}
	if sums["cluster_broadcast"] != sums["cluster_pull"] {
		return sums["cluster_push"], fmt.Errorf("scenario: broadcast %d bytes but pulled %d",
			sums["cluster_broadcast"], sums["cluster_pull"])
	}
	return sums["cluster_push"], nil
}
