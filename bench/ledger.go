package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"edgehd/internal/cluster"
	"edgehd/internal/core"
	"edgehd/internal/encoding"
	"edgehd/internal/hdc"
	"edgehd/internal/hierarchy"
	"edgehd/internal/parallel"
	"edgehd/internal/rng"
	"edgehd/internal/telemetry"
	"edgehd/internal/wire"
)

// reconcileTolerance is how far, as a share of the measured Infer
// median, the staged stage sum may sit from it before the traced pass
// reports the ledger as not adding up.
const reconcileTolerance = 0.15

// Call counts of the layer probes: kernels under ~150 µs are timed over
// probeCalls calls, millisecond-scale ones over heavyCalls.
const (
	probeCalls = 1000
	heavyCalls = 250
)

// ledger is the traced pass. It builds all three planes at the
// workload's shape (the workload's own threshold or tenant, defaults
// elsewhere), replays the workload's own plane untraced and traced for a
// fifth of the run length — the ratio of the two throughputs is the
// tracing overhead — replays the other planes briefly, then times every
// layer's public functions directly.
func ledger(w workload, seed uint64, sc scale) (result, error) {
	dur := time.Duration(sc.seconds * float64(time.Second))
	own := dur / 5
	brief := min(own, 400*time.Millisecond)
	replay := func(p plane) time.Duration {
		if w.plane == p {
			return own
		}
		return brief
	}
	v := map[string]float64{
		"harness.nproc":      float64(runtime.NumCPU()),
		"harness.gomaxprocs": float64(runtime.GOMAXPROCS(0)),
		"parallel.workers":   float64(parallel.New(0).Workers()),
	}
	var attempted, failed int64
	var recs []*recorder
	// reconciled holds the traced pass to "the stages sum to the whole"
	// on the routed workloads, whose route the staged replay walks.
	reconciled := true

	// Routed plane.
	threshold := defaultThreshold
	if w.plane == routed {
		threshold = w.threshold
	}
	rf, rp, err := setupRouted(seed, threshold, sc)
	if err != nil {
		return result{}, err
	}
	for _, name := range []string{"hierarchy.build_s", "hierarchy.train_s", "hierarchy.train_wire_bytes"} {
		v[name] = rp[name]
	}
	plain := rf.run(replay(routed), false)
	traced := rf.run(replay(routed), true)
	stagesAddUp := routedLedger(v, rf, traced, sc)
	if w.plane == routed {
		reconciled = stagesAddUp
		v["dataset.generate_s"] = rp["dataset.generate_s"]
		untraced := summarize(plain.logs, plain.ph)
		v["harness.trace_overhead_ratio"] = ratio(summarize(traced.logs, traced.ph).throughput, untraced.throughput)
		v["harness.segment_spread"] = untraced.segmentSpread
		attempted, failed = traced.attempted, traced.failed+rf.verify(traced.samples)
		recs = traced.recs
	}

	// Served plane.
	load := serveSaturateSmall
	if w.plane == served {
		load = w
	}
	sf, sp, err := setupServed(seed, load.tenant, sc)
	if err != nil {
		return result{}, err
	}
	v["core.fit_s"] = sp["core.fit_s"]
	splain, err := sf.run(load, seed, replay(served), false)
	if err != nil {
		return result{}, err
	}
	straced, err := sf.run(load, seed, replay(served), true)
	if err != nil {
		return result{}, err
	}
	paced := straced
	if !load.paced {
		if paced, err = sf.run(servePaced, seed, brief, false); err != nil {
			return result{}, err
		}
	}
	if err := servedLedger(v, sf, splain, straced, paced, seed, brief, sc); err != nil {
		return result{}, err
	}
	if w.plane == served {
		v["dataset.generate_s"] = sp["dataset.generate_s"]
		untraced := summarize(splain.logs, splain.ph)
		v["harness.trace_overhead_ratio"] = ratio(summarize(straced.logs, straced.ph).throughput, untraced.throughput)
		v["harness.segment_spread"] = untraced.segmentSpread
		attempted, failed = straced.attempted, straced.failed()+sf.verify(straced.samples)
		recs = straced.recs
	}

	// Training plane.
	tf, tp, err := setupTraining(seed, sc)
	if err != nil {
		return result{}, err
	}
	minRounds := 1
	if w.plane == training {
		minRounds = 3
	}
	ttraced, err := tf.run(replay(training), minRounds, true)
	if err != nil {
		return result{}, err
	}
	if err := trainingLedger(v, tf, ttraced); err != nil {
		return result{}, err
	}
	if w.plane == training {
		tplain, err := tf.run(replay(training), minRounds, false)
		if err != nil {
			return result{}, err
		}
		v["dataset.generate_s"] = tp["dataset.generate_s"]
		v["harness.trace_overhead_ratio"] = ratio(roundThroughput(ttraced), roundThroughput(tplain))
		v["harness.segment_spread"] = spread(roundThroughputs(tplain))
		attempted = int64(len(ttraced.rounds) * ttraced.rows)
		failed = ttraced.oracle * int64(ttraced.rows)
		recs = ttraced.recs
	}

	if err := kernelLedger(v, rf, sf, w, sc); err != nil {
		return result{}, err
	}

	path, err := writeTrace(w.name, seed, recs)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("trace: %s\n", path)
	return newResult(perLayer, v, attempted, failed, failed == 0 && reconciled)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// routedLedger fills the hierarchy, encoding and telemetry-on-Infer
// rows. It reports whether the staged stage sum reconciles with the
// measured Infer.
func routedLedger(v map[string]float64, f *routedFixture, traced *routedRun, sc scale) bool {
	sys, topo := f.sys, f.sys.Topology()

	// Staged replay: Infer against the sum of its route's stages.
	infer, self := make([]float64, len(traced.staged)), make([]float64, len(traced.staged))
	for i, s := range traced.staged {
		infer[i], self[i] = us(s.infer), us(s.infer-s.stages)
	}
	v["hierarchy.infer_us"] = median(infer)
	v["hierarchy.infer_self_us"] = median(self)
	reconciled := len(infer) > 0 && math.Abs(median(self)) <= reconcileTolerance*median(infer)
	if !reconciled {
		fmt.Printf("reconcile: staged stages miss the measured Infer median %.1f us by %.1f us (over %.0f%%)\n",
			median(infer), median(self), 100*reconcileTolerance)
	}

	// Counting pass: one caller, so MemStats and WorkAt deltas belong
	// to these queries alone.
	calls := sc.calls(heavyCalls)
	if sys.Config().ConfidenceThreshold <= 0.5 {
		calls = sc.calls(probeCalls)
	}
	inferAll := func() (escalations, local int, distinctMACs int64) {
		for i := 0; i < calls; i++ {
			row := f.order[i%len(f.order)]
			res, err := sys.Infer(f.data.TestX[row], row%hierEndNodes)
			if err != nil {
				continue
			}
			escalations += res.Escalations
			if res.Escalations == 0 {
				local++
			}
			macs, _ := sys.QueryWork(res.Node)
			distinctMACs += macs
		}
		return
	}
	sys.ResetWork()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	escalations, local, distinctMACs := inferAll()
	runtime.ReadMemStats(&ms1)
	var macs, hvOps int64
	for _, n := range sys.Nodes() {
		m, o := sys.WorkAt(n.ID)
		macs += m
		hvOps += o
	}
	n := float64(calls)
	v["hierarchy.encode_redundancy"] = ratio(float64(macs), float64(distinctMACs))
	v["hierarchy.escalations_per_query"] = float64(escalations) / n
	v["hierarchy.local_resolve_ratio"] = float64(local) / n
	v["hierarchy.hv_ops_per_query"] = float64(hvOps) / n
	v["hierarchy.allocs_per_infer"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	v["hierarchy.alloc_bytes_per_infer"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n

	// Telemetry on Infer: everything attached against nothing attached.
	timeInfer := func() float64 {
		i := 0
		return timeMedian(calls, 1, func() {
			row := f.order[i%len(f.order)]
			_, _ = sys.Infer(f.data.TestX[row], row%hierEndNodes)
			i++
		})
	}
	sys.SetTelemetry(nil, nil)
	bare := timeInfer()
	reg := telemetry.New()
	sys.SetTelemetry(reg, fullTracer(reg))
	v["telemetry.infer_overhead_ratio"] = ratio(timeInfer(), bare)
	sys.SetTelemetry(telemetry.New(), nil)

	// Query assembly, from outside: a leaf, the root, the root's children.
	leaf, root := topo.EndNodes[0], topo.Central
	row := 0
	nextRow := func() []float64 {
		x := f.data.TestX[f.order[row%len(f.order)]]
		row++
		return x
	}
	sys.ResetWork()
	v["encoding.encode_us"] = timeMedian(sc.calls(probeCalls), 1, func() { _, _ = sys.Query(leaf, nextRow()) })
	leafMACs, _ := sys.WorkAt(leaf)
	v["encoding.encode_macs_per_query"] = float64(leafMACs) / float64(sc.calls(probeCalls))
	queryRoot := timeMedian(sc.calls(heavyCalls), 1, func() { _, _ = sys.Query(root, nextRow()) })
	children := 0.0
	for _, c := range topo.Net.Children(root) {
		children += timeMedian(sc.calls(heavyCalls), 1, func() { _, _ = sys.Query(c, nextRow()) })
	}
	v["hierarchy.query_root_us"] = queryRoot
	v["hierarchy.combine_self_us"] = queryRoot - children

	topo.Net.Reset()
	comm, err := sys.InferCommTime(root, 0)
	if err != nil {
		comm = 0
	}
	v["netsim.infer_comm_sim_ms"] = comm * 1000
	return reconciled
}

// fullTracer is a Tracer with a Sampler, the most telemetry a cmd/* can
// attach.
func fullTracer(reg *telemetry.Registry) *telemetry.Tracer {
	tr := telemetry.NewTracer(4096, reg)
	tr.SetSampler(telemetry.NewSampler(reg, telemetry.SamplerConfig{}))
	return tr
}

// servedLedger fills the serve rows from the replays and closes the
// fixture's server (its drain is serve.drain_s).
func servedLedger(v map[string]float64, f *servedFixture, plain, traced, paced *servedRun, seed uint64, brief time.Duration, sc scale) error {
	v["serve.mean_batch"] = ratio(float64(plain.stats.Admitted), float64(plain.stats.Batches))
	v["serve.shed_ratio"] = ratio(float64(plain.stats.Rejected), float64(plain.stats.Admitted+plain.stats.Rejected))
	v["serve.allocs_per_query"] = ratio(float64(plain.mallocs), float64(plain.answered))
	wait := make([]float64, len(traced.direct))
	for i, d := range traced.direct {
		wait[i] = float64(d.rtt-d.direct) / float64(time.Millisecond)
	}
	v["serve.wait_ms"] = median(wait)
	late := make([]float64, len(paced.late))
	for i, d := range paced.late {
		late[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(late)
	v["harness.send_late_p99_ms"], _ = tailPercentile(late, 0.99)

	idle, err := f.idleRTT(sc.calls(heavyCalls))
	if err != nil {
		return err
	}
	v["serve.idle_rtt_ms"] = idle

	// Telemetry on serving: closed-loop throughput with nothing attached
	// over throughput with Registry, Tracer and Sampler attached.
	throughputWith := func(reg *telemetry.Registry, tracer *telemetry.Tracer) (float64, error) {
		g := *f
		if err := g.startServer(reg, tracer); err != nil {
			return 0, err
		}
		run, err := g.run(serveSaturateSmall, seed, brief, false)
		if _, cerr := g.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		return summarize(run.logs, run.ph).throughput, nil
	}
	bare, err := throughputWith(nil, nil)
	if err != nil {
		return err
	}
	reg := telemetry.New()
	full, err := throughputWith(reg, fullTracer(reg))
	if err != nil {
		return err
	}
	v["telemetry.serve_overhead_ratio"] = ratio(bare, full)

	drain, err := f.close()
	v["serve.drain_s"] = drain
	return err
}

func roundThroughputs(run *trainingRun) []float64 {
	thr := make([]float64, len(run.rounds))
	for i, r := range run.rounds {
		thr[i] = float64(run.rows) / r.seconds()
	}
	return thr
}

func roundThroughput(run *trainingRun) float64 { return median(roundThroughputs(run)) }

// trainingLedger fills the cluster rows: the federated round as the
// traced rounds measured it, and a worker's own training time measured by
// training the same shards directly.
func trainingLedger(v map[string]float64, f *trainFixture, traced *trainingRun) error {
	fed := make([]float64, len(traced.rounds))
	for i, r := range traced.rounds {
		fed[i] = r.fedS
	}
	last := traced.rounds[len(traced.rounds)-1]
	// The workers of a round train side by side, so train the same
	// shards side by side here and take the slowest.
	times, errs := make([]float64, len(f.shards)), make([]error, len(f.shards))
	var wg sync.WaitGroup
	for i, shard := range f.shards {
		w, err := cluster.NewWorker(f.fedConfig(nil))
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int, shard cluster.Shard) {
			defer wg.Done()
			t := time.Now()
			errs[i] = w.Train(shard.X, shard.Y)
			times[i] = since(t)
		}(i, shard)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	slowest := slices.Max(times)
	acc, err := last.workers[0].Classifier().Evaluate(f.data.TestX, f.data.TestY)
	if err != nil {
		return err
	}
	v["cluster.federated_round_s"] = median(fed)
	v["cluster.worker_train_s"] = slowest
	// Two noisy timings taken apart can cross; a negative time helps nobody.
	v["cluster.merge_pull_s"] = max(0, median(fed)-slowest)
	v["cluster.push_bytes"] = float64(last.pushBytes)
	v["cluster.global_accuracy"] = acc
	return nil
}

// kernelLedger times the public kernels of hdc, hierarchy's projection,
// core's associative search, the wire codec and the parallel engine.
func kernelLedger(v map[string]float64, rf *routedFixture, sf *servedFixture, w workload, sc scale) error {
	r := rng.New(subSeed(worldSeed, "kernels"))
	calls, heavy := sc.calls(probeCalls), sc.calls(heavyCalls)

	// hdc at D=4096. The tiny ones run 64 to a sample.
	a, b := hdc.RandomBipolar(hierDim, r), hdc.RandomBipolar(hierDim, r)
	floats := r.NormVec(hierDim, nil)
	acc := hdc.NewAcc(hierDim)
	half1, half2 := hdc.RandomBipolar(hierDim/2, r), hdc.RandomBipolar(hierDim/2, r)
	var sinkF float64
	var sinkI int
	v["hdc.dotsigns_us"] = timeMedian(calls, 8, func() { sinkF += hdc.DotSigns(floats, a) })
	v["hdc.hamming_us"] = timeMedian(calls, 64, func() { sinkI += a.Hamming(b) })
	v["hdc.addbipolar_us"] = timeMedian(calls, 8, func() { acc.AddBipolar(a) })
	v["hdc.concat_us"] = timeMedian(calls, 64, func() { sinkI += hdc.ConcatBipolar(half1, half2).Dim() })
	_, _ = sinkF, sinkI

	// The root-shaped ternary projection.
	proj, err := hierarchy.NewProjection(hierDim, hierDim, 64, subSeed(worldSeed, "projection"))
	if err != nil {
		return err
	}
	v["hierarchy.project_bipolar_us"] = timeMedian(heavy, 1, func() { _, _ = proj.Bipolar(a) })
	acc.AddBipolar(b)
	v["hierarchy.project_acc_us"] = timeMedian(heavy, 1, func() { _, _ = proj.Acc(acc) })

	// Associative search at the workload's k×D: the tenant model of a
	// served workload, the central node's model otherwise.
	var model *core.Model
	var query hdc.Bipolar
	if w.plane == served {
		model, query = sf.model, sf.pool[0]
	} else {
		root := rf.sys.Topology().Central
		model = rf.sys.NodeModel(root)
		if query, err = rf.sys.Query(root, rf.data.TestX[0]); err != nil {
			return err
		}
	}
	v["core.assoc_us"] = timeMedian(calls, 1, func() { model.Confidence(query) })
	v["core.assoc_ops"] = float64((model.Classes() + 1) * model.Dim())

	// Wire codec on the frames that model exchanges.
	frame := func(m wire.Message) []byte {
		var buf bytes.Buffer
		_ = wire.Write(&buf, m)
		return buf.Bytes()
	}
	queryMsg := wire.Message{Header: wire.Header{Type: wire.MsgQuery, Batch: 1}, Bipolar: query}
	predictMsg := wire.Message{Header: wire.Header{Type: wire.MsgPredict, Class: 1, Batch: 1}, Confidence: 0.9}
	modelMsg := wire.Message{Header: wire.Header{Type: wire.MsgModel}}
	for c := 0; c < model.Classes(); c++ {
		modelMsg.Model = append(modelMsg.Model, model.Class(c))
	}
	queryFrame, modelFrame := frame(queryMsg), frame(modelMsg)
	var buf bytes.Buffer
	encode := func(m wire.Message) func() {
		return func() { buf.Reset(); _ = wire.Write(&buf, m) }
	}
	decode := func(data []byte) func() {
		return func() { _, _ = wire.Read(bytes.NewReader(data)) }
	}
	v["wire.query_encode_us"] = timeMedian(calls, 1, encode(queryMsg))
	v["wire.query_decode_us"] = timeMedian(calls, 1, decode(queryFrame))
	v["wire.predict_rt_us"] = timeMedian(calls, 1, func() {
		buf.Reset()
		_ = wire.Write(&buf, predictMsg)
		_, _ = wire.Read(bytes.NewReader(buf.Bytes()))
	})
	v["wire.model_encode_us"] = timeMedian(heavy, 1, encode(modelMsg))
	v["wire.model_decode_us"] = timeMedian(heavy, 1, decode(modelFrame))
	v["wire.query_frame_bytes"] = float64(len(queryFrame))
	v["wire.model_frame_bytes"] = float64(len(modelFrame))

	// EncodeBatch on one worker over EncodeBatch on all of them.
	rows := rf.data.TestX[:min(sc.rows(512), len(rf.data.TestX))]
	enc, err := encoding.NewSparse(len(rows[0]), hierDim, subSeed(worldSeed, "batch-encoder"), encoding.SparseConfig{Sparsity: 0.8})
	if err != nil {
		return err
	}
	one := timeMedian(3, 1, func() { encoding.EncodeBatch(parallel.New(1), enc, rows) })
	all := timeMedian(3, 1, func() { encoding.EncodeBatch(parallel.New(0), enc, rows) })
	v["parallel.encode_batch_speedup"] = ratio(one, all)
	return nil
}
