package hierarchy

import (
	"testing"

	"edgehd/internal/dataset"
	"edgehd/internal/netsim"
	"edgehd/internal/telemetry"
)

// TestInferTraceWireBytesMatchesInferCommBytes is the telemetry
// acceptance check: a traced inference records the entry node, the
// resolve depth and the wire bytes crossed, and the traced bytes agree
// exactly with the InferCommBytes accounting and the InferResult.
func TestInferTraceWireBytesMatchesInferCommBytes(t *testing.T) {
	spec, err := dataset.ByName("APRI")
	if err != nil {
		t.Fatal(err)
	}
	d := spec.Generate(17, dataset.Options{MaxTrain: 120, MaxTest: 40})
	topo, err := netsim.Star(spec.EndNodes, netsim.Wired1G())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	tracer := telemetry.NewTracer(16, reg)
	// ConfidenceThreshold 2 can never be cleared (confidence ≤ 1), so
	// every query escalates from its entry leaf to the central node:
	// the wire bytes of one inference are exactly InferCommBytes(central).
	sys, err := BuildForDataset(topo, d, Config{
		TotalDim: 1500, Seed: 13, RetrainEpochs: 2,
		ConfidenceThreshold: 2,
		Telemetry:           reg, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Train(d.TrainX, d.TrainY); err != nil {
		t.Fatal(err)
	}

	res, err := sys.Infer(d.TestX[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != topo.Central {
		t.Fatalf("forced escalation resolved at node %d, want central %d", res.Node, topo.Central)
	}
	want := sys.InferCommBytes(topo.Central)
	if want <= 0 {
		t.Fatal("InferCommBytes(central) not positive; test topology degenerate")
	}
	if res.WireBytes != want {
		t.Fatalf("InferResult.WireBytes = %d, want InferCommBytes = %d", res.WireBytes, want)
	}

	sp := tracer.Last("infer")
	if sp == nil {
		t.Fatal("no infer span recorded")
	}
	gotWire, ok := sp.Int64Attr("wire_bytes")
	if !ok || gotWire != want {
		t.Fatalf("span wire_bytes = %d (ok=%v), want %d", gotWire, ok, want)
	}
	if entry, ok := sp.Int64Attr("entry_node"); !ok || entry != int64(topo.EndNodes[0]) {
		t.Fatalf("span entry_node = %d (ok=%v), want %d", entry, ok, topo.EndNodes[0])
	}
	if lvl, ok := sp.Int64Attr("resolve_level"); !ok || lvl != int64(res.Level) {
		t.Fatalf("span resolve_level = %d (ok=%v), want %d", lvl, ok, res.Level)
	}
	if esc, ok := sp.Int64Attr("escalations"); !ok || esc != int64(res.Escalations) {
		t.Fatalf("span escalations = %d (ok=%v), want %d", esc, ok, res.Escalations)
	}
	if sp.DurationNS <= 0 {
		t.Fatalf("span duration = %d, want > 0", sp.DurationNS)
	}

	// The infer_* metrics must tell the same story.
	if got := reg.Counter("infer_total").Value(); got != 1 {
		t.Fatalf("infer_total = %d, want 1", got)
	}
	if got := reg.Counter("infer_wire_bytes_total").Value(); got != want {
		t.Fatalf("infer_wire_bytes_total = %d, want %d", got, want)
	}
	if got := reg.Counter("infer_escalations_total").Value(); got != int64(res.Escalations) {
		t.Fatalf("infer_escalations_total = %d, want %d", got, res.Escalations)
	}
	if got := reg.Counter("infer_resolved_local_total").Value(); got != 0 {
		t.Fatalf("infer_resolved_local_total = %d, want 0 under forced escalation", got)
	}
	if got := reg.Histogram("span_seconds", telemetry.L("span", "infer")).Count(); got != 1 {
		t.Fatalf("span_seconds{span=infer} count = %d, want 1", got)
	}
}

// TestTrainAndResidualSpansRecorded checks that the other traced hot
// paths — distributed training and residual propagation — emit spans
// whose byte attributes agree with the reports.
func TestTrainAndResidualSpansRecorded(t *testing.T) {
	reg := telemetry.New()
	tracer := telemetry.NewTracer(16, reg)
	sys, d := buildPDP(t, Config{TotalDim: 1000, Seed: 14, RetrainEpochs: 1,
		Telemetry: reg, Tracer: tracer}, 60, 20)
	rep, err := sys.Train(d.TrainX, d.TrainY)
	if err != nil {
		t.Fatal(err)
	}
	sp := tracer.Last("train")
	if sp == nil {
		t.Fatal("no train span recorded")
	}
	if b, ok := sp.Int64Attr("bytes"); !ok || b != rep.Bytes {
		t.Fatalf("train span bytes = %d (ok=%v), want %d", b, ok, rep.Bytes)
	}
	if got := reg.Counter("train_bytes_total").Value(); got != rep.Bytes {
		t.Fatalf("train_bytes_total = %d, want %d", got, rep.Bytes)
	}

	// Feed one wrong prediction back and sweep residuals.
	if _, err := sys.NegativeFeedbackBroadcast(0, d.TrainX[0], (d.TrainY[0]+1)%sys.classes); err != nil {
		t.Fatal(err)
	}
	orep, err := sys.PropagateResiduals()
	if err != nil {
		t.Fatal(err)
	}
	rsp := tracer.Last("residual_sweep")
	if rsp == nil {
		t.Fatal("no residual_sweep span recorded")
	}
	if b, ok := rsp.Int64Attr("bytes"); !ok || b != orep.Bytes {
		t.Fatalf("residual span bytes = %d (ok=%v), want %d", b, ok, orep.Bytes)
	}
	if got := reg.Counter("online_sweeps_total").Value(); got != 1 {
		t.Fatalf("online_sweeps_total = %d, want 1", got)
	}
}

// benchInferSystem builds a small trained PDP hierarchy, optionally
// instrumented, for the disabled-vs-enabled overhead benchmarks.
func benchInferSystem(b *testing.B, reg *telemetry.Registry, tracer *telemetry.Tracer) (*System, *dataset.Dataset) {
	b.Helper()
	spec, err := dataset.ByName("PDP")
	if err != nil {
		b.Fatal(err)
	}
	d := spec.Generate(42, dataset.Options{MaxTrain: 200, MaxTest: 50})
	topo, err := netsim.Tree(spec.EndNodes, 2, netsim.Wired1G())
	if err != nil {
		b.Fatal(err)
	}
	sys, err := BuildForDataset(topo, d, Config{TotalDim: 2000, RetrainEpochs: 3, Seed: 9,
		Telemetry: reg, Tracer: tracer})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Train(d.TrainX, d.TrainY); err != nil {
		b.Fatal(err)
	}
	return sys, d
}

// BenchmarkInferTelemetryDisabled is the baseline: the instrumented hot
// path with a nil registry and tracer (every instrument is a nil
// no-op). Compare against BenchmarkInferTelemetryEnabled to measure
// collection overhead; the disabled path must stay within noise of the
// pre-instrumentation code.
func BenchmarkInferTelemetryDisabled(b *testing.B) {
	sys, d := benchInferSystem(b, nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Infer(d.TestX[i%len(d.TestX)], i%5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferTelemetryEnabled measures the fully-instrumented path:
// live registry, live tracer, spans and metrics recorded per call.
func BenchmarkInferTelemetryEnabled(b *testing.B) {
	reg := telemetry.New()
	tracer := telemetry.NewTracer(256, reg)
	sys, d := benchInferSystem(b, reg, tracer)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Infer(d.TestX[i%len(d.TestX)], i%5); err != nil {
			b.Fatal(err)
		}
	}
}
