package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"edgehd/internal/cluster"
	"edgehd/internal/core"
	"edgehd/internal/hierarchy"
	"edgehd/internal/telemetry"
)

// roundResult is one training round: a hierarchy built and trained on
// the round's rows, then a federated round over the same rows.
type roundResult struct {
	buildS, trainS, fedS float64
	cpu                  time.Duration
	hierBytes            int64 // TrainReport.Bytes
	fedBytes             int64 // worker socket bytes, both directions
	pushBytes            int64 // worker socket bytes written
	sys                  *hierarchy.System
	workers              []*cluster.Worker
	global               *core.Model
}

func (r roundResult) seconds() float64 { return r.buildS + r.trainS + r.fedS }

// workerConn counts the bytes the federated workers move; the workers
// run concurrently, so the counters are atomic.
type workerConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c workerConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c workerConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

func (f *trainFixture) fedConfig(wrap func(int, net.Conn) net.Conn) cluster.Config {
	return cluster.Config{
		Features:       f.spec.Features,
		Classes:        f.spec.Classes,
		Dim:            fedDim,
		EncoderSeed:    subSeed(worldSeed, "federated-encoder"),
		WrapWorkerConn: wrap,
	}
}

// round runs one training round, timing each stage from outside.
func (f *trainFixture) round(rec *recorder, op uint32) (roundResult, error) {
	var r roundResult
	cpu0 := cpuTime()
	sp := rec.begin("round", 0, op)
	defer rec.end(sp)

	topo, err := hierTopology()
	if err != nil {
		return r, err
	}
	t := time.Now()
	s := rec.begin("hier_build", sp, op)
	r.sys, err = hierarchy.BuildForDataset(topo, f.data, hierarchy.Config{
		TotalDim:  hierDim,
		Seed:      subSeed(worldSeed, "training-build"),
		Telemetry: telemetry.New(),
	})
	rec.end(s)
	if err != nil {
		return r, err
	}
	r.buildS = since(t)

	t = time.Now()
	s = rec.begin("hier_train", sp, op)
	rep, err := r.sys.Train(f.data.TrainX, f.data.TrainY)
	rec.end(s)
	if err != nil {
		return r, err
	}
	r.trainS = since(t)
	r.hierBytes = rep.Bytes

	var in, out atomic.Int64
	t = time.Now()
	s = rec.begin("federated", sp, op)
	r.workers, r.global, err = cluster.Federated(f.fedConfig(func(_ int, c net.Conn) net.Conn {
		return workerConn{Conn: c, in: &in, out: &out}
	}), f.shards)
	rec.end(s)
	if err != nil {
		return r, err
	}
	r.fedS = since(t)
	r.pushBytes = out.Load()
	r.fedBytes = in.Load() + out.Load()
	r.cpu = cpuTime() - cpu0
	return r, nil
}

// hash fingerprints the round's models: the central node's class
// hypervectors and the federated global ones.
func (r roundResult) hash() uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, m := range []*core.Model{r.sys.NodeModel(r.sys.Topology().Central), r.global} {
		for c := 0; c < m.Classes(); c++ {
			for _, v := range m.Class(c).Ints() {
				binary.LittleEndian.PutUint32(b[:], uint32(v))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// pulledEqualsGlobal reports whether every worker ended the round
// holding exactly the aggregator's global model.
func (r roundResult) pulledEqualsGlobal() bool {
	for _, w := range r.workers {
		m := w.Model()
		if m.Classes() != r.global.Classes() {
			return false
		}
		for c := 0; c < m.Classes(); c++ {
			if !slices.Equal(m.Class(c).Ints(), r.global.Class(c).Ints()) {
				return false
			}
		}
	}
	return true
}

// trainingRun is what one phase of training rounds produced.
type trainingRun struct {
	rounds   []roundResult
	rows     int   // rows one round trains
	oracle   int64 // rounds whose oracle check failed
	accuracy float64
	recs     []*recorder
}

// run repeats training rounds until dur has passed and at least
// minRounds are done, checking after each — outside its timing — that
// every worker pulled the global model and that the round's model hash
// equals the first round's.
func (f *trainFixture) run(dur time.Duration, minRounds int, trace bool) (*trainingRun, error) {
	run := &trainingRun{rows: len(f.data.TrainX)}
	start := time.Now()
	var rec *recorder
	if trace {
		rec = newRecorder(start, 0)
		run.recs = []*recorder{rec}
	}
	var first uint64
	for op := uint32(0); int(op) < minRounds || time.Since(start) < dur; op++ {
		r, err := f.round(rec, op)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", op, err)
		}
		h := r.hash()
		if op == 0 {
			first = h
		}
		if !r.pulledEqualsGlobal() || h != first {
			run.oracle++
		}
		if op > 0 {
			// Keep only the last round's models alive.
			prev := &run.rounds[len(run.rounds)-1]
			prev.sys, prev.workers, prev.global = nil, nil, nil
		}
		run.rounds = append(run.rounds, r)
	}
	last := run.rounds[len(run.rounds)-1]
	run.accuracy = last.sys.AccuracyAt(last.sys.Topology().Central, f.data.TestX, f.data.TestY)
	return run, nil
}
