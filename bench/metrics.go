package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one metric of the ledger. BENCHMARK.json repeats
// these tables for the driver; TestBenchmarkJSONMatchesTables keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before a change counts as a regression (end-to-end only).
	Bound float64
}

// endToEnd is what a user of the system sees, reported by every
// workload in the untraced pass. The timing metrics carry the largest
// bound the contract allows: bench/out/spread.txt records how far this
// sandbox's own speed shifts between runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"success_ratio", "ratio", "higher", 0.001},
	{"accuracy", "ratio", "higher", 0.02},
	{"wire_bytes_per_op", "bytes", "lower", 0.02},
	{"resident_mb", "MB", "lower", 0.10},
}

// perLayer is the ledger of single layers, reported by every workload
// in the traced pass. Names are <module>.<metric>; README.md says which
// end-to-end cell each should move.
var perLayer = []metricDef{
	{"encoding.encode_us", "us", "lower", 0},
	{"encoding.encode_macs_per_query", "count", "lower", 0},
	{"hierarchy.encode_redundancy", "ratio", "lower", 0},
	{"hierarchy.escalations_per_query", "count", "lower", 0},
	{"hierarchy.local_resolve_ratio", "ratio", "higher", 0},
	{"hierarchy.query_root_us", "us", "lower", 0},
	{"hierarchy.combine_self_us", "us", "lower", 0},
	{"hierarchy.project_bipolar_us", "us", "lower", 0},
	{"hierarchy.project_acc_us", "us", "lower", 0},
	{"hierarchy.hv_ops_per_query", "count", "lower", 0},
	{"hierarchy.infer_us", "us", "lower", 0},
	{"hierarchy.infer_self_us", "us", "lower", 0},
	{"hierarchy.allocs_per_infer", "count", "lower", 0},
	{"hierarchy.alloc_bytes_per_infer", "bytes", "lower", 0},
	{"hierarchy.build_s", "s", "lower", 0},
	{"hierarchy.train_s", "s", "lower", 0},
	{"hierarchy.train_wire_bytes", "bytes", "lower", 0},
	{"core.assoc_us", "us", "lower", 0},
	{"core.assoc_ops", "count", "lower", 0},
	{"core.fit_s", "s", "lower", 0},
	{"hdc.dotsigns_us", "us", "lower", 0},
	{"hdc.hamming_us", "us", "lower", 0},
	{"hdc.addbipolar_us", "us", "lower", 0},
	{"hdc.concat_us", "us", "lower", 0},
	{"wire.query_encode_us", "us", "lower", 0},
	{"wire.query_decode_us", "us", "lower", 0},
	{"wire.predict_rt_us", "us", "lower", 0},
	{"wire.model_encode_us", "us", "lower", 0},
	{"wire.model_decode_us", "us", "lower", 0},
	{"wire.query_frame_bytes", "bytes", "lower", 0},
	{"wire.model_frame_bytes", "bytes", "lower", 0},
	{"serve.mean_batch", "count", "higher", 0},
	{"serve.shed_ratio", "ratio", "lower", 0},
	{"serve.idle_rtt_ms", "ms", "lower", 0},
	{"serve.wait_ms", "ms", "lower", 0},
	{"serve.allocs_per_query", "count", "lower", 0},
	{"serve.drain_s", "s", "lower", 0},
	{"cluster.federated_round_s", "s", "lower", 0},
	{"cluster.worker_train_s", "s", "lower", 0},
	{"cluster.merge_pull_s", "s", "lower", 0},
	{"cluster.push_bytes", "bytes", "lower", 0},
	{"cluster.global_accuracy", "ratio", "higher", 0},
	{"parallel.workers", "count", "higher", 0},
	{"parallel.encode_batch_speedup", "ratio", "higher", 0},
	{"telemetry.infer_overhead_ratio", "ratio", "lower", 0},
	{"telemetry.serve_overhead_ratio", "ratio", "lower", 0},
	{"netsim.infer_comm_sim_ms", "ms", "lower", 0},
	{"dataset.generate_s", "s", "lower", 0},
	{"harness.send_late_p99_ms", "ms", "lower", 0},
	{"harness.trace_overhead_ratio", "ratio", "higher", 0},
	{"harness.segment_spread", "ratio", "lower", 0},
	{"harness.nproc", "count", "higher", 0},
	{"harness.gomaxprocs", "count", "higher", 0},
}

// measured is one reported value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of standard
// output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// newResult fills a result from raw values, failing when a metric of
// defs was not measured or a value has no definition — either is a bug
// in the harness, not in the program under test.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int64, correct bool) (result, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]measured, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = measured{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := res.Metrics[name]; !ok {
				return result{}, fmt.Errorf("value %s has no metric definition", name)
			}
		}
	}
	return res, nil
}

// printTable writes every metric of res by name with its unit, in
// definition order.
func printTable(w io.Writer, workload string, defs []metricDef, res result) {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d, correct %v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better, bound %.1f%%)", d.Better, 100*d.Bound)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-6s%s\n", d.Name, m.Value, m.Unit, bound)
	}
}

// printJSONLine writes res as one line.
func printJSONLine(w io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// worseBy returns the share of base by which cand is worse than base in
// the metric's direction: positive is a regression, negative a gain.
func worseBy(d metricDef, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - cand) / base
	}
	return (cand - base) / base
}

// withinBound reports whether cand is no worse than base by more than
// the metric's bound.
func withinBound(d metricDef, base, cand float64) bool {
	return worseBy(d, base, cand) <= d.Bound
}
