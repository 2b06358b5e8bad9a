package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"edgehd/internal/cluster"
	"edgehd/internal/core"
	"edgehd/internal/dataset"
	"edgehd/internal/encoding"
	"edgehd/internal/hdc"
	"edgehd/internal/hierarchy"
	"edgehd/internal/netsim"
	"edgehd/internal/parallel"
	"edgehd/internal/rng"
	"edgehd/internal/serve"
	"edgehd/internal/telemetry"
)

// parts are the stage timings and counts a set-up produced, keyed by
// per-layer metric name.
type parts map[string]float64

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// routedFixture is a trained hierarchy and its query pool.
type routedFixture struct {
	data  *dataset.Dataset
	sys   *hierarchy.System
	order []int // order[i] is the test row of the i-th query
}

// hierTopology is the topology every hierarchy in the benchmark uses:
// the paper's three-level TREE over PDP's five end nodes.
func hierTopology() (*netsim.Topology, error) {
	return netsim.Tree(hierEndNodes, hierGroup, netsim.Wired1G())
}

// setupRouted generates the dataset, builds and trains the hierarchy
// with a Registry attached and no Tracer, as every cmd/* does.
func setupRouted(seed uint64, threshold float64, sc scale) (*routedFixture, parts, error) {
	spec, err := dataset.ByName(hierDataset)
	if err != nil {
		return nil, nil, err
	}
	p := parts{}
	t := time.Now()
	d := spec.Generate(subSeed(worldSeed, "routed-data"), dataset.Options{MaxTrain: sc.rows(hierTrainRows), MaxTest: sc.rows(spec.TestSize)})
	p["dataset.generate_s"] = since(t)

	topo, err := hierTopology()
	if err != nil {
		return nil, nil, err
	}
	t = time.Now()
	sys, err := hierarchy.BuildForDataset(topo, d, hierarchy.Config{
		TotalDim:            hierDim,
		ConfidenceThreshold: threshold,
		Seed:                subSeed(worldSeed, "routed-build"),
		Telemetry:           telemetry.New(),
	})
	if err != nil {
		return nil, nil, err
	}
	p["hierarchy.build_s"] = since(t)

	t = time.Now()
	rep, err := sys.Train(d.TrainX, d.TrainY)
	if err != nil {
		return nil, nil, err
	}
	p["hierarchy.train_s"] = since(t)
	p["hierarchy.train_wire_bytes"] = float64(rep.Bytes)
	return &routedFixture{data: d, sys: sys, order: queryOrder(seed, len(d.TestX))}, p, nil
}

// servedFixture is a fitted tenant model, its pre-encoded query pool,
// and a server publishing it on loopback TCP.
type servedFixture struct {
	model  *core.Model
	pool   []hdc.Bipolar
	labels []int
	order  []int
	srv    *serve.Server
	ln     net.Listener
	served chan error // Serve's return value, once the listener closes
}

// setupServed fits the tenant model, encodes the query pool, and starts
// the server with a Registry attached and no Tracer.
func setupServed(seed uint64, shape tenantShape, sc scale) (*servedFixture, parts, error) {
	spec, err := dataset.ByName(shape.dataset)
	if err != nil {
		return nil, nil, err
	}
	p := parts{}
	t := time.Now()
	d := spec.Generate(subSeed(worldSeed, "served-data"), dataset.Options{MaxTrain: sc.rows(shape.train), MaxTest: sc.rows(shape.pool)})
	p["dataset.generate_s"] = since(t)

	enc, err := encoding.NewSparse(spec.Features, shape.dim, subSeed(worldSeed, "served-encoder"), encoding.SparseConfig{Sparsity: 0.8})
	if err != nil {
		return nil, nil, err
	}
	clf, err := core.NewClassifier(enc, spec.Classes)
	if err != nil {
		return nil, nil, err
	}
	pool := parallel.New(0)
	clf.SetPool(pool)
	t = time.Now()
	if _, err := clf.Fit(d.TrainX, d.TrainY, 0); err != nil {
		return nil, nil, err
	}
	p["core.fit_s"] = since(t)
	f := &servedFixture{
		model:  clf.Model(),
		pool:   encoding.EncodeBatch(pool, enc, d.TestX),
		labels: d.TestY,
		order:  queryOrder(seed, len(d.TestX)),
	}
	if len(f.pool) == 0 {
		return nil, nil, fmt.Errorf("dataset %s generated no queries", shape.dataset)
	}
	if err := f.startServer(telemetry.New(), nil); err != nil {
		return nil, nil, err
	}
	return f, p, nil
}

// startServer publishes the fixture's model on a fresh loopback
// listener. tracer is nil in every workload; only the telemetry-overhead
// probe sets it.
func (f *servedFixture) startServer(reg *telemetry.Registry, tracer *telemetry.Tracer) error {
	registry := serve.NewRegistry()
	if err := registry.Set(tenantName, f.model); err != nil {
		return err
	}
	srv, err := serve.NewServer(serve.Config{Registry: registry, Pool: parallel.New(0), Telemetry: reg, Tracer: tracer})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return err
	}
	f.srv, f.ln, f.served = srv, ln, make(chan error, 1)
	go func() { f.served <- srv.Serve(ln) }()
	return nil
}

// close drains the server, waits for its accept loop, and returns how
// long the drain took. Server.Close closes only listeners Serve has
// already registered, so a server closed right after its start needs
// the listener closed here too.
func (f *servedFixture) close() (float64, error) {
	t := time.Now()
	err := f.srv.Close()
	drain := since(t)
	_ = f.ln.Close()
	<-f.served
	return drain, err
}

// trainFixture is the rows one training round consumes.
type trainFixture struct {
	spec   dataset.Spec
	data   *dataset.Dataset
	shards []cluster.Shard
}

// setupTraining generates the round's rows, puts them in the seed's
// order, splits them into the federated shards, and runs one untimed warm-up round so lazy set-up
// and heap growth finish before the first measured one.
func setupTraining(seed uint64, sc scale) (*trainFixture, parts, error) {
	spec, err := dataset.ByName(hierDataset)
	if err != nil {
		return nil, nil, err
	}
	p := parts{}
	t := time.Now()
	d := spec.Generate(subSeed(worldSeed, "training-data"), dataset.Options{MaxTrain: sc.rows(roundRows), MaxTest: sc.rows(roundTestRows)})
	rng.New(subSeed(seed, "training-order")).Shuffle(len(d.TrainX), func(i, j int) {
		d.TrainX[i], d.TrainX[j] = d.TrainX[j], d.TrainX[i]
		d.TrainY[i], d.TrainY[j] = d.TrainY[j], d.TrainY[i]
	})
	p["dataset.generate_s"] = since(t)
	f := &trainFixture{spec: spec, data: d}
	per := len(d.TrainX) / fedShards
	for s := 0; s < fedShards; s++ {
		lo, hi := s*per, (s+1)*per
		if s == fedShards-1 {
			hi = len(d.TrainX)
		}
		f.shards = append(f.shards, cluster.Shard{X: d.TrainX[lo:hi], Y: d.TrainY[lo:hi]})
	}
	if _, err := f.round(nil, 0); err != nil {
		return nil, nil, err
	}
	return f, p, nil
}

// residentMB is the live heap after two collections, in MB.
func residentMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
