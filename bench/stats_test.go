package main

import (
	"math"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n        int
		wantIdx  int
		wantUsed float64
	}{
		{n: 2000, wantIdx: 1979, wantUsed: 0.99},  // 20 beyond: p99 stands
		{n: 1100, wantIdx: 1088, wantUsed: 0.99},  // 11 beyond: p99 stands
		{n: 1000, wantIdx: 989, wantUsed: 0.99},   // exactly 10 beyond
		{n: 200, wantIdx: 189, wantUsed: 0.95},    // p99 would leave 2 beyond: lowered to p95
		{n: 15, wantIdx: 7, wantUsed: 8.0 / 15.0}, // too few for any tail: the median
		{n: 1, wantIdx: 0, wantUsed: 1},
	}
	for _, c := range cases {
		got, used := tailPercentile(ramp(c.n), 0.99)
		if got != float64(c.wantIdx) || math.Abs(used-c.wantUsed) > 1e-9 {
			t.Errorf("n=%d: got value %v at quantile %v, want %d at %v", c.n, got, used, c.wantIdx, c.wantUsed)
		}
		if beyond := c.n - 1 - int(got); beyond < minBeyond && int(got) > (c.n-1)/2 {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, beyond)
		}
	}
	if v, used := tailPercentile(nil, 0.99); v != 0 || used != 0 {
		t.Errorf("empty input: got %v, %v", v, used)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if s := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); s != 1 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 5.5]
	if q1, q3 := quartiles([]float64{3, 5}); q1 != 2.5 || q3 != 5.5 {
		t.Fatalf("two-point quartiles = %v, %v; want 2.5, 5.5", q1, q3)
	}
}

// TestSegmentMedianShrugsOffSpikes builds a phase of one-second segments
// with 100 operations of 1 ms each, then wrecks one segment (a tenth of
// the operations, each fifty times slower, ten times the CPU): every
// reported value must stay at the quiet segments' level. With the tails
// of half the segments stalled — where a median of the p99s gives way —
// their first quartile still reads quiet.
func TestSegmentMedianShrugsOffSpikes(t *testing.T) {
	const wrecked = 3
	p := &phase{dur: segments * time.Second}
	log := newOpLog(0)
	first := make([]int, segments) // first[seg] is the log entry segment seg starts at
	for seg := 0; seg < segments; seg++ {
		first[seg] = len(log.lat)
		ops, lat, cpu := 100, time.Millisecond, 100*time.Millisecond
		if seg == wrecked {
			ops, lat, cpu = 10, 50*time.Millisecond, time.Second
		}
		for i := 0; i < ops; i++ {
			log.add(time.Duration(seg)*time.Second+time.Duration(i)*time.Millisecond, lat)
		}
		p.cpu[seg+1] = p.cpu[seg] + cpu
	}
	total := 100*(segments-1) + 10
	sum := summarize([]*opLog{log}, p)
	if sum.ops != total {
		t.Errorf("ops = %d, want %d", sum.ops, total)
	}
	if sum.throughput != 100 || sum.p50ms != 1 || sum.p99ms != 1 || sum.cpuMsPerOp != 1 {
		t.Errorf("spike leaked into the medians: %+v", sum)
	}
	// Stall the last 15 of the 100 operations of every other odd segment:
	// with the wrecked one, half the run is disturbed.
	for seg := 1; seg < segments; seg += 2 {
		for i := 85; i < 100 && seg != wrecked; i++ {
			log.lat[first[seg]+i] = 300 * time.Millisecond
		}
	}
	if sum := summarize([]*opLog{log}, p); sum.p50ms != 1 || sum.p99ms != 1 {
		t.Errorf("stalled tails in half the segments moved the latencies: %+v", sum)
	}
	// An operation that completes after the deadline belongs to the last
	// segment, not to one more.
	log.add(p.dur+time.Millisecond, time.Millisecond)
	if got := summarize([]*opLog{log}, p).ops; got != total+1 {
		t.Errorf("late operation dropped: ops = %d", got)
	}
}

func TestBoundComparison(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput", Better: "higher", Bound: 0.10}
	cases := []struct {
		d          metricDef
		base, cand float64
		worse      float64
		within     bool
	}{
		{lower, 100, 109, 0.09, true},
		{lower, 100, 111, 0.11, false},
		{lower, 100, 50, -0.5, true}, // a gain is never a regression
		{higher, 100, 91, 0.09, true},
		{higher, 100, 89, 0.11, false},
		{higher, 100, 200, -1, true},
	}
	for _, c := range cases {
		if got := worseBy(c.d, c.base, c.cand); math.Abs(got-c.worse) > 1e-9 {
			t.Errorf("%s %v→%v: worseBy = %v, want %v", c.d.Name, c.base, c.cand, got, c.worse)
		}
		if got := withinBound(c.d, c.base, c.cand); got != c.within {
			t.Errorf("%s %v→%v: withinBound = %v, want %v", c.d.Name, c.base, c.cand, got, c.within)
		}
	}
}

func TestNewResultRejectsMissingAndUnknownMetrics(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	if _, err := newResult(defs, map[string]float64{"a": 1}, 1, 0, true); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := newResult(defs, map[string]float64{"a": 1, "b": 2, "c": 3}, 1, 0, true); err == nil {
		t.Error("undefined metric accepted")
	}
	res, err := newResult(defs, map[string]float64{"a": 1, "b": 2}, 7, 1, false)
	if err != nil || res.Metrics["b"] != (measured{Value: 2, Unit: "ms"}) || res.Attempted != 7 || res.Failed != 1 || res.Correct {
		t.Errorf("newResult = %+v, %v", res, err)
	}
}
