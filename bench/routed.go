package main

import (
	"math"
	"sync"
	"time"

	"edgehd/internal/hierarchy"
	"edgehd/internal/netsim"
)

// routedOracleEvery is how often a routed result is kept for the
// oracle, and stagedEvery how often the traced pass replays a query's
// route stage by stage.
const (
	routedOracleEvery = 16
	stagedEvery       = 16
)

// routedSample is one result kept for the oracle.
type routedSample struct {
	row, entry int
	res        hierarchy.InferResult
}

// stagedSample pairs one measured Infer with the sum of the stages of
// its staged replay (Query plus Confidence at every hop of its route).
type stagedSample struct {
	infer, stages time.Duration
}

// routedRun is what one phase of routed inference produced.
type routedRun struct {
	ph        *phase
	logs      []*opLog
	attempted int64
	failed    int64 // Infer returned an error
	labelHits int64
	wireBytes int64
	samples   []routedSample
	staged    []stagedSample
	recs      []*recorder
}

// run drives hierarchy.Infer in a closed loop from callers() goroutines
// for dur. Caller c walks the seeded query order from its own offset;
// the entry end node is the row number modulo the end-node count. With
// trace set every call is wrapped in a span and every stagedEvery-th
// query is replayed stage by stage.
func (f *routedFixture) run(dur time.Duration, trace bool) *routedRun {
	n := callers()
	run := &routedRun{ph: &phase{start: time.Now(), dur: dur}, logs: make([]*opLog, n), recs: make([]*recorder, n)}
	parts := make([]routedRun, n)
	deadline := run.ph.start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		run.logs[c] = newOpLog(1 << 14)
		if trace {
			run.recs[c] = newRecorder(run.ph.start, c)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f.caller(c, n, deadline, run.ph.start, run.logs[c], run.recs[c], &parts[c])
		}(c)
	}
	run.ph.sampleCPU()
	wg.Wait()
	for c := range parts {
		run.attempted += parts[c].attempted
		run.failed += parts[c].failed
		run.labelHits += parts[c].labelHits
		run.wireBytes += parts[c].wireBytes
		run.samples = append(run.samples, parts[c].samples...)
		run.staged = append(run.staged, parts[c].staged...)
	}
	return run
}

func (f *routedFixture) caller(c, n int, deadline, start time.Time, log *opLog, rec *recorder, out *routedRun) {
	pos := c * len(f.order) / n
	for op := uint32(0); ; op++ {
		row := f.order[pos]
		if pos++; pos == len(f.order) {
			pos = 0
		}
		x, entry := f.data.TestX[row], row%hierEndNodes
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		sp := rec.begin("infer", 0, op)
		res, err := f.sys.Infer(x, entry)
		t1 := time.Now()
		rec.end(sp)
		out.attempted++
		if err != nil {
			out.failed++
			continue
		}
		log.add(t1.Sub(start), t1.Sub(t0))
		out.wireBytes += res.WireBytes
		if res.Class == f.data.TestY[row] {
			out.labelHits++
		}
		if op%routedOracleEvery == 0 {
			out.samples = append(out.samples, routedSample{row: row, entry: entry, res: res})
		}
		if rec != nil && op%stagedEvery == 0 {
			if stages, ok := f.stagedReplay(rec, op, x, entry, res); ok {
				out.staged = append(out.staged, stagedSample{infer: t1.Sub(t0), stages: stages})
			}
		}
	}
}

// stagedReplay walks the route res took — entry node, then one parent
// per escalation — calling the public function of every stage Infer ran
// there: Query(child) for each child of the hop's node, Query(node),
// then the node model's Confidence. It returns the time Query and
// Confidence took summed over the hops, which Infer's own time should
// reconcile with.
func (f *routedFixture) stagedReplay(rec *recorder, op uint32, x []float64, entry int, res hierarchy.InferResult) (time.Duration, bool) {
	topo := f.sys.Topology()
	route := rec.begin("route", 0, op)
	defer rec.end(route)
	var stages time.Duration
	node := topo.EndNodes[entry]
	for hop := 0; hop <= res.Escalations && node != netsim.InvalidNode; hop++ {
		hopSpan := rec.begin("hop", route, op)
		querySpan := rec.begin("query", hopSpan, op)
		for _, child := range topo.Net.Children(node) {
			cs := rec.begin("query_child", querySpan, op)
			_, err := f.sys.Query(child, x)
			rec.end(cs)
			if err != nil {
				return 0, false
			}
		}
		t0 := time.Now()
		q, err := f.sys.Query(node, x)
		t1 := time.Now()
		if err != nil {
			return 0, false
		}
		f.sys.NodeModel(node).Confidence(q)
		t2 := time.Now()
		rec.set(querySpan, t0, t1)
		rec.add("assoc", hopSpan, op, t1, t2)
		rec.end(hopSpan)
		stages += t2.Sub(t0)
		node = topo.Net.Parent(node)
	}
	return stages, true
}

// verify re-derives every kept result the slow way — ConfidenceAt at the
// entry node, then up Topology().Net.Parent while the confidence stays
// under the threshold — and returns how many differ in class, answering
// node, confidence bits, escalation count or wire bytes.
func (f *routedFixture) verify(samples []routedSample) int64 {
	n := callers()
	bad := make([]int64, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(samples); i += n {
				if !f.matches(samples[i]) {
					bad[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	var total int64
	for _, b := range bad {
		total += b
	}
	return total
}

func (f *routedFixture) matches(s routedSample) bool {
	topo := f.sys.Topology()
	x := f.data.TestX[s.row]
	threshold := f.sys.Config().ConfidenceThreshold
	node := topo.EndNodes[s.entry]
	var wire int64
	for esc := 0; ; esc++ {
		class, conf := f.sys.ConfidenceAt(node, x)
		wire += f.sys.InferCommBytes(node)
		parent := topo.Net.Parent(node)
		if conf >= threshold || parent == netsim.InvalidNode {
			return s.res.Class == class && s.res.Node == node && s.res.Escalations == esc && s.res.Level == esc+1 &&
				math.Float64bits(s.res.Confidence) == math.Float64bits(conf) && s.res.WireBytes == wire
		}
		node = parent
	}
}
