package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgehd/internal/hierarchy"
	"edgehd/internal/telemetry"
)

func TestSoakRunSmoke(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "soak.json")
	err := run([]string{
		"-cycles", "5", "-warmup", "1",
		"-train", "80", "-dim", "500", "-infer", "4", "-workers", "2",
		"-metrics-out", snap, "-log-level", "error",
	})
	if err != nil {
		t.Fatalf("soak run failed: %v", err)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("metrics snapshot not written: %v", err)
	}
	for _, want := range []string{"soak_cycles_total", "soak_wire_reconciliations_total", "leak_samples", "slo_attainment_ratio"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("snapshot missing %s", want)
		}
	}
}

func TestSoakFlightBundleOnInjectedBreach(t *testing.T) {
	// An impossible latency objective breaches the SLO on the first
	// cycle's flight check, which must deterministically produce exactly
	// one bundle whose tsdb window, trace trees, and wire-byte
	// accounting all reconcile.
	dir := t.TempDir()
	err := run([]string{
		"-cycles", "5", "-warmup", "1",
		"-train", "80", "-dim", "500", "-infer", "4", "-workers", "2",
		"-flight-dir", dir, "-slo-objective", "0.000000001",
		"-log-level", "error",
	})
	if err != nil {
		t.Fatalf("soak run failed: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bundle string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "flight-") {
			if bundle != "" {
				t.Fatalf("more than one bundle for one breach: %s and %s", bundle, e.Name())
			}
			bundle = e.Name()
		}
	}
	if bundle == "" || !strings.HasSuffix(bundle, "-slo_infer_latency") {
		t.Fatalf("no slo_infer_latency bundle in %v", entries)
	}
	bdir := filepath.Join(dir, bundle)

	var manifest telemetry.FlightManifest
	mustJSON(t, filepath.Join(bdir, "manifest.json"), &manifest)
	if manifest.Schema != telemetry.FlightSchema || manifest.Reason != "slo_infer_latency" {
		t.Fatalf("manifest = %+v", manifest)
	}
	if manifest.Series == 0 || manifest.RecentSpans == 0 {
		t.Fatalf("empty bundle counts: %+v", manifest)
	}

	// The tsdb window must hold the cycle-sampled soak series.
	var tsdb struct {
		WindowSeconds float64                `json:"window_seconds"`
		Series        []telemetry.SeriesData `json:"series"`
	}
	mustJSON(t, filepath.Join(bdir, "tsdb.json"), &tsdb)
	if len(tsdb.Series) != manifest.Series || tsdb.WindowSeconds <= 0 {
		t.Fatalf("tsdb.json: %d series, window %v", len(tsdb.Series), tsdb.WindowSeconds)
	}
	found := false
	for _, s := range tsdb.Series {
		if s.Name == "soak_wire_reconciliations_total" {
			found = true
			if len(s.Points) == 0 || s.Last == 0 {
				t.Fatalf("reconciliation series empty: %+v", s)
			}
		}
	}
	if !found {
		t.Fatal("tsdb window missing soak_wire_reconciliations_total")
	}

	// Byte accounting must reconcile inside the bundle itself: for every
	// traced inference among the recent spans, the infer_hop wire bytes
	// sum to the root infer span's wire_bytes attribute.
	var traces struct {
		Kept []struct {
			Reason string           `json:"reason"`
			Spans  []telemetry.Span `json:"spans"`
		} `json:"kept"`
		RecentSpans []telemetry.Span `json:"recent_spans"`
		TotalSpans  int64            `json:"total_spans"`
	}
	mustJSON(t, filepath.Join(bdir, "traces.json"), &traces)
	if traces.TotalSpans == 0 || len(traces.RecentSpans) != manifest.RecentSpans {
		t.Fatalf("trace accounting: total=%d recent=%d manifest=%d",
			traces.TotalSpans, len(traces.RecentSpans), manifest.RecentSpans)
	}
	attrInt := func(s telemetry.Span, key string) (int64, bool) {
		// JSON round-trips numeric attrs as float64.
		v, ok := s.Attr(key).(float64)
		return int64(v), ok
	}
	rootBytes := map[uint64]int64{}
	hopBytes := map[uint64]int64{}
	for _, s := range traces.RecentSpans {
		switch s.Name {
		case "infer":
			if v, ok := attrInt(s, "wire_bytes"); ok {
				rootBytes[s.TraceID] = v
			}
		case "infer_hop":
			if v, ok := attrInt(s, "wire_bytes"); !ok {
				t.Fatalf("infer_hop span without wire_bytes: %+v", s)
			} else {
				hopBytes[s.TraceID] += v
			}
		}
	}
	if len(rootBytes) == 0 {
		t.Fatal("bundle retains no completed infer traces")
	}
	for id, want := range rootBytes {
		if hopBytes[id] != want {
			t.Fatalf("trace %016x: hop bytes %d != root wire bytes %d", id, hopBytes[id], want)
		}
	}

	// The OpenMetrics snapshot parses and carries the soak counters.
	om, err := os.Open(filepath.Join(bdir, "metrics.om"))
	if err != nil {
		t.Fatal(err)
	}
	defer om.Close()
	exp, err := telemetry.ParseOpenMetrics(om)
	if err != nil || !exp.Terminated {
		t.Fatalf("metrics.om: %v terminated=%v", err, exp.Terminated)
	}
	if v, ok := exp.Value("soak_cycles_total"); !ok || v < 1 {
		t.Fatalf("metrics.om soak_cycles_total = %v ok=%v", v, ok)
	}
}

// mustJSON decodes one bundle file or fails the test.
func mustJSON(t *testing.T, path string, out interface{}) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestSoakRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"no workers":        {"-cycles", "1", "-workers", "0"},
		"no bound":          {"-duration", "0s"},
		"bad level":         {"-cycles", "1", "-log-level", "loud"},
		"flat hierarchy":    {"-cycles", "1", "-hier-dataset", "APRI"},
		"unknown dataset":   {"-cycles", "1", "-dataset", "NOPE"},
		"insufficient data": {"-cycles", "1", "-warmup", "99", "-train", "40", "-dim", "200", "-infer", "1", "-log-level", "error"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%s: run(%v) succeeded, want error", name, args)
		}
	}
}

func TestReconcileRound(t *testing.T) {
	balanced := func(push, agg, bcast, pull int64) []telemetry.Span {
		tr := telemetry.NewTracer(16, nil)
		tc := tr.NewTrace()
		tr.StartSpan("cluster_push", tc).SetInt("wire_bytes", push).End()
		tr.StartSpan("cluster_aggregate", tc).SetInt("wire_bytes", agg).End()
		tr.StartSpan("cluster_broadcast", tc).SetInt("wire_bytes", bcast).End()
		tr.StartSpan("cluster_pull", tc).SetInt("wire_bytes", pull).End()
		return tr.Spans()
	}
	if err := reconcileRound(balanced(100, 100, 60, 60)); err != nil {
		t.Errorf("balanced round failed: %v", err)
	}
	if err := reconcileRound(balanced(100, 90, 60, 60)); err == nil {
		t.Error("push/aggregate mismatch not detected")
	}
	if err := reconcileRound(balanced(100, 100, 60, 50)); err == nil {
		t.Error("broadcast/pull mismatch not detected")
	}
	if err := reconcileRound(nil); err == nil {
		t.Error("empty cycle (no cluster_push spans) not detected")
	}
}

func TestReconcileInfer(t *testing.T) {
	tr := telemetry.NewTracer(16, nil)
	if err := reconcileInfer(tr, hierarchy.InferResult{}); err == nil {
		t.Error("untraced inference not detected")
	}

	tc := tr.NewTrace()
	tr.StartSpan("infer_hop", tc).SetInt("wire_bytes", 40).End()
	tr.StartSpan("infer_hop", tc).SetInt("wire_bytes", 24).End()
	res := hierarchy.InferResult{TraceID: tc.TraceID, WireBytes: 64, Escalations: 1}
	if err := reconcileInfer(tr, res); err != nil {
		t.Errorf("consistent inference failed: %v", err)
	}
	res.WireBytes = 63
	if err := reconcileInfer(tr, res); err == nil {
		t.Error("wire-byte mismatch not detected")
	}
	res.WireBytes = 64
	res.Escalations = 2
	if err := reconcileInfer(tr, res); err == nil {
		t.Error("hop-count mismatch not detected")
	}
}

func TestSpansSince(t *testing.T) {
	tr := telemetry.NewTracer(16, nil)
	tc := tr.NewTrace()
	tr.StartSpan("a", tc).End()
	_, seq := spansSince(tr, 0)
	tr.StartSpan("b", tc).End()
	tr.StartSpan("c", tc).End()
	spans, next := spansSince(tr, seq)
	if len(spans) != 2 || spans[0].Name != "b" || spans[1].Name != "c" {
		t.Fatalf("spans after seq %d = %v", seq, spans)
	}
	if next != seq+2 {
		t.Fatalf("next seq = %d, want %d", next, seq+2)
	}
}

func TestSoakScenarioModes(t *testing.T) {
	if err := run([]string{"-scenario", "straggler", "-cycles", "1", "-warmup", "0", "-log-level", "error"}); err != nil {
		t.Fatalf("single-scenario soak failed: %v", err)
	}
	if err := run([]string{"-matrix", "-cycles", "1", "-warmup", "0", "-log-level", "error"}); err != nil {
		t.Fatalf("matrix soak failed: %v", err)
	}
}

func TestSoakScenarioModeBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"both modes":       {"-scenario", "churn", "-matrix", "-cycles", "1"},
		"unknown scenario": {"-scenario", "nope", "-cycles", "1", "-log-level", "error"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%s: run(%v) succeeded, want error", name, args)
		}
	}
}
