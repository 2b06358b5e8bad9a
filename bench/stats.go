package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the nearest-rank p-quantile of sorted,
// lowering p until at least minBeyond samples lie beyond it and never
// below the median, together with the quantile actually used. A p99 of
// 200 samples is therefore reported as their p94.5, and a p99 of 15
// samples as their median.
func tailPercentile(sorted []float64, p float64) (value, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx > n-1-minBeyond {
		idx = n - 1 - minBeyond
	}
	if mid := (n - 1) / 2; idx < mid {
		idx = mid
	}
	return sorted[idx], float64(idx+1) / float64(n)
}

// median returns the middle of xs (the mean of the two middle values
// for an even count) without reordering xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// so spreads printed here match the driver's.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles of xs as a share of
// their median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// segments is how many equal slices a measured phase is cut into. Every
// timing metric is taken per segment and then across segments, so a
// hiccup of the sandbox moves only the segment it falls in. Thirty-two
// make a segment of an 8 s run a quarter of a second: short enough that
// hiccups arriving a few times a second still leave a quarter of the
// segments untouched, long enough for a few hundred operations each.
const segments = 32

// opLog holds one caller's completed operations: when each completed
// (since the phase began) and how long it took.
type opLog struct {
	done []time.Duration
	lat  []time.Duration
}

func newOpLog(capacity int) *opLog {
	return &opLog{done: make([]time.Duration, 0, capacity), lat: make([]time.Duration, 0, capacity)}
}

func (l *opLog) add(done, lat time.Duration) {
	l.done = append(l.done, done)
	l.lat = append(l.lat, lat)
}

// phase is one measured interval with process CPU time sampled at every
// segment boundary.
type phase struct {
	start time.Time
	dur   time.Duration
	cpu   [segments + 1]time.Duration
}

// cpuTime returns the user+system CPU time the process has consumed.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleCPU sleeps to each segment boundary of the phase and records
// the process CPU time there; it returns after the last boundary.
func (p *phase) sampleCPU() {
	for k := 0; k <= segments; k++ {
		time.Sleep(time.Until(p.start.Add(p.dur * time.Duration(k) / segments)))
		p.cpu[k] = cpuTime()
	}
}

// phaseSummary is the segment-median view of a measured phase.
type phaseSummary struct {
	ops           int
	throughput    float64 // ops/s
	p50ms, p99ms  float64
	cpuMsPerOp    float64
	segmentSpread float64 // spread of the per-segment throughputs
}

// summarize buckets every logged operation into the phase's segments by
// completion time (operations that straddle the deadline land in the
// last one) and returns the median over segments of the per-segment
// throughput, median latency and CPU per operation.
//
// The tail is the first quartile of the per-segment p99s, not their
// median. One 10 ms hiccup of the sandbox puts a quarter-second segment
// of serve-paced (500 requests) at a p99 of 10 ms instead of 3.5, and in
// a bad minute hiccups arrive several times a second: over ten runs the
// median of the per-segment p99s then spread by 29%, the p99 pooled over
// the run by 800%, the first quartile by 4%. It reads the tail in the
// quarter of the run the machine left alone; a change that slows the
// tail of every segment moves it just the same.
func summarize(logs []*opLog, p *phase) phaseSummary {
	segLen := p.dur / segments
	var lat [segments][]float64
	for _, l := range logs {
		for i, d := range l.done {
			k := int(d / segLen)
			if k >= segments {
				k = segments - 1
			}
			lat[k] = append(lat[k], float64(l.lat[i])/float64(time.Millisecond))
		}
	}
	var sum phaseSummary
	var thr, p50, p99, cpu []float64
	for k := range lat {
		n := len(lat[k])
		sum.ops += n
		if n == 0 {
			continue
		}
		sort.Float64s(lat[k])
		thr = append(thr, float64(n)/segLen.Seconds())
		p50 = append(p50, lat[k][(n-1)/2])
		tail, _ := tailPercentile(lat[k], 0.99)
		p99 = append(p99, tail)
		cpu = append(cpu, float64(p.cpu[k+1]-p.cpu[k])/float64(time.Millisecond)/float64(n))
	}
	sum.throughput = median(thr)
	sum.p50ms = median(p50)
	sum.p99ms, _ = quartiles(p99)
	sum.cpuMsPerOp = median(cpu)
	sum.segmentSpread = spread(thr)
	return sum
}

// timeMedian calls f samples times, each sample running f inner times
// back to back so that sub-microsecond kernels are not lost in the
// clock's own cost, and returns the median time of one call in
// microseconds.
func timeMedian(samples, inner int, f func()) float64 {
	if samples < 1 {
		samples = 1
	}
	ds := make([]float64, samples)
	for i := range ds {
		t := time.Now()
		for j := 0; j < inner; j++ {
			f()
		}
		ds[i] = float64(time.Since(t)) / float64(time.Microsecond) / float64(inner)
	}
	return median(ds)
}
