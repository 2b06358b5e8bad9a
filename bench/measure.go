package main

import (
	"sort"
	"time"
)

// maxFailRatio is the share of attempted operations that may fail
// (errors, sheds, timeouts) before a run is reported incorrect. An
// oracle mismatch makes it incorrect whatever the share.
const maxFailRatio = 0.001

// routedAnswerBytes is added to every routed query's InferResult.WireBytes:
// the size of the MsgPredict frame that carries an answer back on the
// serving plane (13-byte header, 8-byte confidence). The simulated
// network does not count answers, so without it infer-local — whose
// queries cross no link — would read 0, and a metric that is 0 has no
// bound to be held to.
const routedAnswerBytes = 21

// repeatSetup runs setup as often as sc asks, releasing every fixture
// but the last, and returns the last fixture with the median set-up time
// in seconds. The first set-up of a process pays for page faults and
// heap growth; the median of several does not.
func repeatSetup[T any](sc scale, setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var times []float64
	begun := time.Now()
	for i := 0; i < sc.setups || (i < maxSetups && since(begun) < sc.setupSeconds); i++ {
		if i > 0 {
			release(last)
		}
		t := time.Now()
		f, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, since(t))
		last = f
	}
	return last, median(times), nil
}

// measure is the untraced pass: set up, run the workload's measured
// phase, check the outputs against the oracle, and report every
// end-to-end metric.
func measure(w workload, seed uint64, sc scale) (result, error) {
	dur := time.Duration(sc.seconds * float64(time.Second))
	v := map[string]float64{}
	var attempted, failed, mismatched int64
	var sum phaseSummary

	switch w.plane {
	case routed:
		f, setup, err := repeatSetup(sc, func() (*routedFixture, error) {
			f, _, err := setupRouted(seed, w.threshold, sc)
			return f, err
		}, func(*routedFixture) {})
		if err != nil {
			return result{}, err
		}
		v["setup_s"], v["resident_mb"] = setup, residentMB()
		run := f.run(dur, false)
		sum = summarize(run.logs, run.ph)
		mismatched = f.verify(run.samples)
		attempted, failed = run.attempted, run.failed+mismatched
		v["accuracy"] = ratio(float64(run.labelHits), float64(run.attempted-run.failed))
		v["wire_bytes_per_op"] = routedAnswerBytes + ratio(float64(run.wireBytes), float64(run.attempted-run.failed))

	case served:
		f, setup, err := repeatSetup(sc, func() (*servedFixture, error) {
			f, _, err := setupServed(seed, w.tenant, sc)
			return f, err
		}, func(f *servedFixture) { _, _ = f.close() })
		if err != nil {
			return result{}, err
		}
		v["setup_s"], v["resident_mb"] = setup, residentMB()
		run, err := f.run(w, seed, dur, false)
		if _, cerr := f.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return result{}, err
		}
		sum = summarize(run.logs, run.ph)
		mismatched = f.verify(run.samples)
		attempted, failed = run.attempted, run.failed()+mismatched
		v["accuracy"] = ratio(float64(run.labelHits), float64(run.answered))
		v["wire_bytes_per_op"] = ratio(float64(run.bytes), float64(run.answered))

	case training:
		f, setup, err := repeatSetup(sc, func() (*trainFixture, error) {
			f, _, err := setupTraining(seed, sc)
			return f, err
		}, func(*trainFixture) {})
		if err != nil {
			return result{}, err
		}
		v["setup_s"], v["resident_mb"] = setup, residentMB()
		run, err := f.run(dur, 3, false)
		if err != nil {
			return result{}, err
		}
		sum = summarizeRounds(run)
		mismatched = run.oracle * int64(run.rows)
		attempted, failed = int64(sum.ops), mismatched
		last := run.rounds[len(run.rounds)-1]
		v["accuracy"] = run.accuracy
		v["wire_bytes_per_op"] = float64(last.hierBytes+last.fedBytes) / float64(run.rows)
	}

	v["throughput_ops_s"] = sum.throughput
	v["latency_p50_ms"] = sum.p50ms
	v["latency_p99_ms"] = sum.p99ms
	v["cpu_ms_per_op"] = sum.cpuMsPerOp
	v["success_ratio"] = 1 - ratio(float64(failed), float64(attempted))
	correct := mismatched == 0 && attempted > 0 && float64(failed) <= maxFailRatio*float64(attempted)
	return newResult(endToEnd, v, attempted, failed, correct)
}

// summarizeRounds is summarize for training, where a round is its own
// segment: an operation is one training row, latency is the time of the
// round that trained it.
func summarizeRounds(run *trainingRun) phaseSummary {
	ms := make([]float64, len(run.rounds))
	cpu := make([]float64, len(run.rounds))
	for i, r := range run.rounds {
		ms[i] = r.seconds() * 1000
		cpu[i] = float64(r.cpu) / float64(time.Millisecond) / float64(run.rows)
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	tail, _ := tailPercentile(sorted, 0.99)
	return phaseSummary{
		ops:           len(run.rounds) * run.rows,
		throughput:    roundThroughput(run),
		p50ms:         median(ms),
		p99ms:         tail,
		cpuMsPerOp:    median(cpu),
		segmentSpread: spread(roundThroughputs(run)),
	}
}
