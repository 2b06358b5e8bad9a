package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// smoke runs every workload at a small fraction of its real size: row
// and call counts divided by ten, a quarter-second measured phase, one
// set-up. Shapes (dimensions, topology, classes, window, rate) are the
// real ones.
var smoke = scale{seconds: 0.25, setups: 1, div: 10}

func checkMetrics(t *testing.T, defs []metricDef, res result) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s: %+v (present %v)", d.Name, m, ok)
		}
	}
}

func TestSmokeEveryWorkloadUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(w, 11, smoke)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, endToEnd, res)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v; the contract wants it never 0", d.Name, v)
				}
			}
			if res.Metrics["success_ratio"].Value != 1 {
				t.Errorf("success_ratio = %v", res.Metrics["success_ratio"].Value)
			}
		})
	}
}

// TestSmokeTracedPass runs the ledger for one workload of each plane and
// checks what ISSUE 11 pins down: infer-local resolves everything at its
// entry node, serve-paced sheds nothing, train-round's rounds agree, and
// the trace file holds spans linked to parents.
func TestSmokeTracedPass(t *testing.T) {
	old := traceDir
	traceDir = t.TempDir()
	defer func() { traceDir = old }()
	pinned := map[string]map[string]float64{
		"infer-local": {"hierarchy.local_resolve_ratio": 1, "hierarchy.escalations_per_query": 0, "hierarchy.encode_redundancy": 1},
		"serve-paced": {"serve.shed_ratio": 0},
		"train-round": {},
	}
	for name, want := range pinned {
		t.Run(name, func(t *testing.T) {
			w, err := workloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ledger(w, 12, smoke)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, perLayer, res)
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("oracle: failed %d of %d", res.Failed, res.Attempted)
			}
			for metric, v := range want {
				if got := res.Metrics[metric].Value; got != v {
					t.Errorf("%s = %v, want %v", metric, got, v)
				}
			}
			data, err := os.ReadFile(filepath.Join(traceDir, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			ids, children := map[uint32]bool{}, 0
			for _, s := range tf.Spans {
				ids[s.ID] = true
			}
			for _, s := range tf.Spans {
				if s.EndUS < s.StartUS {
					t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
				}
				if s.Parent != 0 {
					children++
					if !ids[s.Parent] {
						t.Fatalf("span %d (%s) names a parent that was not recorded", s.ID, s.Name)
					}
				}
			}
			if tf.Workload != name || len(tf.Spans) == 0 || children == 0 {
				t.Errorf("trace of %s: %d spans, %d with a parent", tf.Workload, len(tf.Spans), children)
			}
		})
	}
}

// benchmarkJSON is the layout of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables keeps the contract file and the tables
// the harness reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the harness has %d, %d, %d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, harness has %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	hasSetup := false
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v, harness has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: %+v, harness has %+v", i, got, d)
		}
	}
}
