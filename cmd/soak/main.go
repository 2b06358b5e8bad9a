// Command soak is the leak-checked long-runner of the observability
// plane: for a configurable duration it cycles seeded federated rounds
// (live wire frames over in-process connections) and confidence-routed
// inferences over a simulated hierarchy, and after every cycle it
//
//   - reconciles the traced wire bytes — each inference's infer_hop
//     spans must sum to the result's WireBytes, every cycle's
//     cluster_push bytes must equal the aggregator's cluster_aggregate
//     bytes, and the broadcast bytes must equal the pulled bytes (the
//     two ends of every connection count the same frames);
//   - takes a GC-stabilized leak sample (goroutine count and live-heap
//     bytes).
//
// At the end the leak detector compares the baseline and recent sample
// windows: any goroutine drift, or heap drift beyond slack, fails the
// run with a nonzero exit — a soak that passes certifies the round and
// inference paths allocate flat and leave no goroutines behind.
//
// Usage:
//
//	soak [-duration 30s] [-cycles N] [-dataset APRI] [-workers 4]
//	     [-dim 2000] [-train 200] [-infer 16] [-seed 42]
//	     [-debug-addr ADDR] [-metrics-out FILE] [-profile-dir DIR]
//	     [-log-level info]
//	soak -scenario NAME | -matrix [-cycles N] [-seed 42]
//
// -cycles bounds the run by cycle count instead of wall clock (0 =
// duration-bound). -debug-addr serves /metrics, /healthz, /readyz and
// the trace endpoints while the soak runs; -profile-dir captures a
// bounded ring of periodic heap/goroutine profiles to diff a failure
// against.
//
// The -scenario and -matrix modes soak-cycle the adversarial fault
// engine instead (see internal/scenario and scenario.go in this
// package): every cycle must pass the engine's assertion families and
// reproduce the first cycle's report byte for byte.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"edgehd/internal/cluster"
	"edgehd/internal/dataset"
	"edgehd/internal/hierarchy"
	"edgehd/internal/netsim"
	"edgehd/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	duration := fs.Duration("duration", 30*time.Second, "wall-clock soak length (ignored when -cycles > 0)")
	cycles := fs.Int("cycles", 0, "run exactly this many cycles instead of -duration")
	name := fs.String("dataset", "APRI", "benchmark dataset for the federated rounds")
	hierName := fs.String("hier-dataset", "PDP", "hierarchical dataset for the inference cycles")
	workers := fs.Int("workers", 4, "federated workers per round")
	dim := fs.Int("dim", 2000, "hypervector dimensionality")
	train := fs.Int("train", 200, "training samples per cycle workload")
	infers := fs.Int("infer", 16, "hierarchy inferences per cycle")
	seed := fs.Uint64("seed", 42, "random seed")
	warmup := fs.Int("warmup", 2, "leak-detector warmup cycles to discard")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /healthz, /readyz, trace trees and pprof on this address")
	metricsOut := fs.String("metrics-out", "", "write a JSON metrics+spans snapshot to this file at exit")
	profileDir := fs.String("profile-dir", "", "capture periodic heap/goroutine pprof profiles into this bounded ring")
	scenarioName := fs.String("scenario", "", "soak-cycle one named adversarial scenario (see internal/scenario)")
	matrix := fs.Bool("matrix", false, "soak-cycle the full adversarial scenario matrix")
	logLevel := fs.String("log-level", "info", "structured-log level on stderr: debug, info, warn or error")
	flightDir := fs.String("flight-dir", "", "write SLO-breach flight bundles (tsdb window, kept traces, logs, profiles) into this directory")
	sloObjective := fs.Float64("slo-objective", 0.05, "inference-latency SLO objective in seconds (95% of inferences must finish within it); lower it to force a breach deterministically")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("need at least one worker")
	}
	if *cycles == 0 && *duration <= 0 {
		return fmt.Errorf("need a positive -duration or a -cycles count")
	}
	level, err := telemetry.ParseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logRing := telemetry.NewLogRing(os.Stderr, 512)
	log := telemetry.NewLogger(logRing, "soak", level)

	if *scenarioName != "" || *matrix {
		if *scenarioName != "" && *matrix {
			return fmt.Errorf("-scenario and -matrix are mutually exclusive")
		}
		return runScenarioSoak(scenarioSoakOpts{
			name:     *scenarioName,
			cycles:   *cycles,
			duration: *duration,
			seed:     *seed,
			warmup:   *warmup,
			log:      log,
		})
	}

	life := telemetry.NewLifecycle()
	defer life.Close()
	defer life.HandleSignals(log)()

	// The soak always runs with telemetry attached — the tracer IS the
	// instrument under test (wire-byte reconciliation reads its spans).
	// The ring must retain at least one full cycle of spans.
	reg := telemetry.New()
	tracer := telemetry.NewTracer(4096, reg)
	// Retention-only tail sampler: head admission stays at 100% because
	// reconcileInfer demands a trace id on every single inference, while
	// slow/errored roots are additionally kept for the flight bundle.
	sampler := telemetry.NewSampler(reg, telemetry.SamplerConfig{})
	tracer.SetSampler(sampler)
	// The in-process TSDB is sampled once per cycle, so a flight bundle
	// carries the per-cycle trajectory of every counter and quantile.
	series := telemetry.NewSeries(reg, telemetry.SeriesConfig{})
	det := telemetry.NewLeakDetector(reg, *warmup)
	cycleGauge := reg.Gauge("soak_cycles_total")
	reconciled := reg.Counter("soak_wire_reconciliations_total")

	// Routed-inference latency objective, refreshed every cycle so the
	// slo_* gauges are live on /metrics and land in the final snapshot.
	slo, err := telemetry.NewSLO(reg, "infer_latency",
		reg.Histogram("span_seconds", telemetry.L("span", "infer")), *sloObjective, 0.95)
	if err != nil {
		return err
	}

	health := telemetry.NewHealth()
	cycleBeat := telemetry.NewHeartbeat(time.Minute)
	health.Liveness("cycle", cycleBeat.Check)
	firstCycleDone := false
	health.Readiness("soak", func() error {
		if !firstCycleDone {
			return errors.New("no cycle completed yet")
		}
		return nil
	})
	if *debugAddr != "" {
		srv, err := telemetry.ServeDebug(*debugAddr, reg, tracer, health,
			telemetry.DebugOptions{Series: series, Sampler: sampler})
		if err != nil {
			return err
		}
		life.Defer(func() { _ = srv.Close() })
		reg.Publish("soak")
		collector := telemetry.NewCollector(reg)
		beat := telemetry.NewHeartbeat(5 * time.Second)
		collector.OnCollect(beat.Beat)
		health.Liveness("collector", beat.Check)
		life.Defer(collector.Start(time.Second))
		log.Info("debug server listening", "addr", srv.Addr(), "url", "http://"+srv.Addr()+"/")
	}
	if *metricsOut != "" {
		out := *metricsOut
		life.Defer(func() {
			if err := telemetry.WriteSnapshotFile(out, reg, tracer); err != nil {
				log.Error("metrics snapshot failed", "error", err.Error())
			} else {
				log.Info("metrics snapshot written", "path", out)
			}
		})
	}
	var profiles *telemetry.ProfileRing
	if *profileDir != "" {
		profiles, err = telemetry.NewProfileRing(*profileDir, 8, reg, log)
		if err != nil {
			return err
		}
		life.Defer(profiles.Start(10*time.Second, 0))
		log.Info("profile ring capturing", "dir", *profileDir)
	}
	var flight *telemetry.FlightRecorder
	if *flightDir != "" {
		flight, err = telemetry.NewFlightRecorder(telemetry.FlightConfig{Dir: *flightDir}, telemetry.FlightSources{
			Registry: reg, Tracer: tracer, Sampler: sampler,
			Series: series, Logs: logRing, Profiles: profiles,
		}, log)
		if err != nil {
			return err
		}
		flight.WatchSLO("infer_latency", slo)
		flight.WatchHealth(health)
		flight.WatchLeaks(det)
		// The soak's cadence is its cycle loop, not a wall-clock
		// collector: watchers are evaluated once per cycle (below) and a
		// final time at teardown.
		life.Defer(flight.Check)
		log.Info("flight recorder armed", "dir", *flightDir)
	}

	// Federated workload: one dataset sharded across the workers.
	spec, err := dataset.ByName(strings.ToUpper(*name))
	if err != nil {
		return err
	}
	fed := spec.Generate(*seed, dataset.Options{MaxTrain: *train, MaxTest: 1})
	shards := make([]cluster.Shard, *workers)
	for i, row := range fed.TrainX {
		s := i % *workers
		shards[s].X = append(shards[s].X, row)
		shards[s].Y = append(shards[s].Y, fed.TrainY[i])
	}
	cfg := cluster.Config{
		Features:    spec.Features,
		Classes:     spec.Classes,
		Dim:         *dim,
		EncoderSeed: *seed + 1,
		Tracer:      tracer,
		Logger:      log,
	}

	// Inference workload: a trained hierarchy over the netsim tree.
	hierSpec, err := dataset.ByName(strings.ToUpper(*hierName))
	if err != nil {
		return err
	}
	if !hierSpec.Hierarchical() {
		return fmt.Errorf("-hier-dataset %s is not hierarchical", hierSpec.Name)
	}
	hd := hierSpec.Generate(*seed, dataset.Options{MaxTrain: *train, MaxTest: *infers})
	topo, err := netsim.Tree(hierSpec.EndNodes, 2, netsim.Wired1G())
	if err != nil {
		return err
	}
	sys, err := hierarchy.Build(topo, hd.Partition, hierSpec.Classes, hierarchy.Config{
		TotalDim:  *dim,
		Seed:      *seed,
		Telemetry: reg,
		Tracer:    tracer,
		Logger:    log,
	})
	if err != nil {
		return err
	}
	if _, err := sys.Train(hd.TrainX, hd.TrainY); err != nil {
		return err
	}

	log.Info("soak started", "duration", duration.String(), "cycles", *cycles,
		"workers", *workers, "dataset", spec.Name, "hier_dataset", hierSpec.Name)
	deadline := time.Now().Add(*duration)
	cycle := 0
	lastSeq := tracer.Total()
	for {
		if *cycles > 0 {
			if cycle >= *cycles {
				break
			}
		} else if !time.Now().Before(deadline) {
			break
		}

		// One federated round: live frames over in-process connections.
		if _, _, err := cluster.Federated(cfg, shards); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}

		// A batch of routed inferences; each must reconcile on its own
		// trace (hop wire bytes sum to the result's total).
		for i := 0; i < *infers && i < len(hd.TestX); i++ {
			res, err := sys.Infer(hd.TestX[i], i%len(topo.EndNodes))
			if err != nil {
				return fmt.Errorf("cycle %d infer %d: %w", cycle, i, err)
			}
			if err := reconcileInfer(tracer, res); err != nil {
				return fmt.Errorf("cycle %d infer %d: %w", cycle, i, err)
			}
		}

		// Cycle-level reconciliation: both ends of every connection must
		// have counted the same frames.
		spans, maxSeq := spansSince(tracer, lastSeq)
		lastSeq = maxSeq
		if err := reconcileRound(spans); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		reconciled.Add(1)

		cycle++
		cycleGauge.Set(float64(cycle))
		cycleBeat.Beat()
		firstCycleDone = true
		slo.Collect()
		det.SampleStable()
		series.Sample()
		flight.Check()
		log.Debug("cycle complete", "cycle", cycle)
	}

	report := det.Report()
	log.Info("soak finished", "cycles", cycle,
		"samples", report.Samples, "usable", report.Usable,
		"goroutine_drift", report.GoroutineDrift, "heap_drift_bytes", report.HeapDriftBytes,
		"baseline_max_goroutines", report.BaselineMaxGoroutines, "recent_min_goroutines", report.RecentMinGoroutines,
		"baseline_max_heap_bytes", report.BaselineMaxHeap, "recent_min_heap_bytes", report.RecentMinHeap)
	if report.Insufficient {
		return fmt.Errorf("only %d usable leak samples after %d cycles (need 4; lengthen -duration or lower -warmup)", report.Usable, cycle)
	}
	if report.Leaky() {
		return fmt.Errorf("drift detected after %d cycles: %+d goroutines, %+d heap bytes beyond slack", cycle, report.GoroutineDrift, report.HeapDriftBytes)
	}
	fmt.Printf("soak passed: %d cycles, zero goroutine drift, zero heap drift (slack %d bytes), wire bytes reconciled\n",
		cycle, report.HeapSlackBytes)
	return nil
}

// spansSince returns the retained spans completed after seq, plus the
// highest sequence seen (== the tracer total when nothing rotated out).
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

// reconcileInfer checks one inference's trace: the infer_hop spans must
// carry wire-byte attributes summing exactly to the result's WireBytes.
func reconcileInfer(tr *telemetry.Tracer, res hierarchy.InferResult) error {
	if res.TraceID == 0 {
		return fmt.Errorf("inference recorded no trace")
	}
	var hops, sum int64
	for _, s := range tr.Trace(res.TraceID) {
		if s.Name != "infer_hop" {
			continue
		}
		v, ok := s.Int64Attr("wire_bytes")
		if !ok {
			return fmt.Errorf("trace %016x: infer_hop span without wire_bytes", res.TraceID)
		}
		hops++
		sum += v
	}
	if hops != int64(res.Escalations)+1 {
		return fmt.Errorf("trace %016x: %d infer_hop spans for %d escalations", res.TraceID, hops, res.Escalations)
	}
	if sum != res.WireBytes {
		return fmt.Errorf("trace %016x: hop wire bytes %d != result wire bytes %d", res.TraceID, sum, res.WireBytes)
	}
	return nil
}

// reconcileRound checks a cycle's cluster spans: pushed bytes must equal
// aggregated bytes and broadcast bytes must equal pulled bytes — the
// sender and receiver ends of each connection counted the same frames.
func reconcileRound(spans []telemetry.Span) error {
	sums := map[string]int64{}
	counts := map[string]int64{}
	for _, s := range spans {
		if v, ok := s.Int64Attr("wire_bytes"); ok {
			sums[s.Name] += v
			counts[s.Name]++
		}
	}
	if counts["cluster_push"] == 0 {
		return fmt.Errorf("no cluster_push spans recorded")
	}
	if sums["cluster_push"] != sums["cluster_aggregate"] {
		return fmt.Errorf("pushed %d bytes but aggregated %d", sums["cluster_push"], sums["cluster_aggregate"])
	}
	if sums["cluster_broadcast"] != sums["cluster_pull"] {
		return fmt.Errorf("broadcast %d bytes but pulled %d", sums["cluster_broadcast"], sums["cluster_pull"])
	}
	return nil
}
