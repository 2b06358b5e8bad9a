package cluster

import (
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"edgehd/internal/core"
	"edgehd/internal/dataset"
	"edgehd/internal/encoding"
)

// shardedDataset splits a generated dataset into n sample shards.
func shardedDataset(t *testing.T, name string, n, maxTrain int) (dataset.Spec, []Shard, *dataset.Dataset) {
	t.Helper()
	spec, err := dataset.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d := spec.Generate(17, dataset.Options{MaxTrain: maxTrain, MaxTest: 150})
	shards := make([]Shard, n)
	for i, row := range d.TrainX {
		s := i % n
		shards[s].X = append(shards[s].X, row)
		shards[s].Y = append(shards[s].Y, d.TrainY[i])
	}
	return spec, shards, d
}

func federatedConfig(spec dataset.Spec, dim int) Config {
	return Config{Features: spec.Features, Classes: spec.Classes, Dim: dim, EncoderSeed: 5}
}

func TestFederatedEqualsJointTraining(t *testing.T) {
	// The core aggregation identity: merging per-shard bundles over the
	// wire must reproduce the jointly trained model bit for bit.
	spec, shards, d := shardedDataset(t, "APRI", 4, 240)
	cfg := federatedConfig(spec, 1000)
	workers, global, err := Federated(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(workers) != 4 {
		t.Fatalf("got %d workers", len(workers))
	}
	// Joint reference: bundle everything with the same encoder seed.
	enc := must(encoding.NewSparse(spec.Features, 1000, 5, encoding.SparseConfig{Sparsity: 0.8}))
	joint := must(core.NewClassifier(enc, spec.Classes))
	samples, err := joint.EncodeAll(d.TrainX, d.TrainY)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		joint.Model().Add(s.Label, s.HV)
	}
	for c := 0; c < spec.Classes; c++ {
		got, want := global.Class(c), joint.Model().Class(c)
		for i := 0; i < got.Dim(); i++ {
			if got.Get(i) != want.Get(i) {
				t.Fatalf("class %d dim %d: federated %d != joint %d", c, i, got.Get(i), want.Get(i))
			}
		}
	}
}

func TestFederatedWorkersReceiveGlobalModel(t *testing.T) {
	spec, shards, d := shardedDataset(t, "PDP", 3, 300)
	cfg := federatedConfig(spec, 1500)
	workers, global, err := Federated(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	for wi, w := range workers {
		for c := 0; c < spec.Classes; c++ {
			got, want := w.Model().Class(c), global.Class(c)
			for i := 0; i < got.Dim(); i++ {
				if got.Get(i) != want.Get(i) {
					t.Fatalf("worker %d class %d differs from global at dim %d", wi, c, i)
				}
			}
		}
	}
	// The global model must classify the full distribution decently —
	// each shard alone has a third of the data.
	correct := 0
	for i, x := range d.TestX {
		if workers[0].Classifier().Predict(x) == d.TestY[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(d.TestX)); acc < 0.75 {
		t.Fatalf("federated accuracy %v too low", acc)
	}
}

func TestFederatedBeatsSingleShard(t *testing.T) {
	spec, shards, d := shardedDataset(t, "PAMAP2", 5, 500)
	cfg := federatedConfig(spec, 2000)
	// Lone worker on one shard.
	lone, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := lone.Train(shards[0].X, shards[0].Y); err != nil {
		t.Fatal(err)
	}
	evaluate := func(clf *core.Classifier) float64 {
		correct := 0
		for i, x := range d.TestX {
			if clf.Predict(x) == d.TestY[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(d.TestX))
	}
	loneAcc := evaluate(lone.Classifier())
	workers, _, err := Federated(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	fedAcc := evaluate(workers[0].Classifier())
	if fedAcc < loneAcc {
		t.Fatalf("federation (%v) did not beat a single shard (%v)", fedAcc, loneAcc)
	}
}

func TestFederatedWithLocalRetraining(t *testing.T) {
	spec, shards, d := shardedDataset(t, "APRI", 3, 240)
	cfg := federatedConfig(spec, 1000)
	cfg.LocalEpochs = 5
	workers, _, err := Federated(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range d.TestX {
		if workers[0].Classifier().Predict(x) == d.TestY[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(d.TestX)); acc < 0.7 {
		t.Fatalf("retrained federation accuracy %v too low", acc)
	}
}

func TestFederatedOverTCP(t *testing.T) {
	// The wire protocol must survive a real network stack, not just
	// in-process pipes.
	spec, shards, _ := shardedDataset(t, "PDP", 2, 120)
	cfg, err := federatedConfig(spec, 500).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck // test listener
	agg := must(NewAggregator(cfg.Dim, cfg.Classes, len(shards)))
	release := make(chan struct{})
	merged := make(chan error, len(shards))
	serveErrs := make(chan error, len(shards))
	go func() {
		for i := 0; i < len(shards); i++ {
			conn, err := ln.Accept()
			if err != nil {
				serveErrs <- err
				return
			}
			go func(slot int, c net.Conn) {
				defer c.Close() //nolint:errcheck // test connection
				serveErrs <- agg.ServeOne(c, slot, merged, release)
			}(i, conn)
		}
	}()
	go func() {
		for i := 0; i < len(shards); i++ {
			if err := <-merged; err != nil {
				break
			}
		}
		close(release)
	}()
	// Push every model before pulling any: the aggregator broadcasts
	// only after all workers have reported, so interleaving push/pull
	// sequentially would deadlock.
	workers := make([]*Worker, len(shards))
	conns := make([]net.Conn, len(shards))
	for i := range shards {
		w, err := NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		if err := w.Train(shards[i].X, shards[i].Y); err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
		if err := w.Push(conn); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range workers {
		if err := w.Pull(conns[i]); err != nil {
			t.Fatal(err)
		}
		_ = conns[i].Close()
	}
	for i := 0; i < len(shards); i++ {
		if err := <-serveErrs; err != nil {
			t.Fatal(err)
		}
	}
	if agg.Received() != len(shards) {
		t.Fatalf("aggregator merged %d models, want %d", agg.Received(), len(shards))
	}
}

func TestFederatedAggregationRunToRunIdentical(t *testing.T) {
	// The slot-indexed aggregator merges in shard order, never in
	// connection-completion order, so repeated federated rounds over the
	// same shards must produce byte-identical aggregate models even
	// though goroutine scheduling differs between runs. Local retraining
	// is on, making each pushed model the product of a full non-linear
	// training pipeline.
	spec, shards, _ := shardedDataset(t, "APRI", 4, 200)
	cfg := federatedConfig(spec, 800)
	cfg.LocalEpochs = 3
	run := func() *core.Model {
		_, global, err := Federated(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		return global
	}
	ref := run()
	for trial := 0; trial < 2; trial++ {
		got := run()
		for c := 0; c < spec.Classes; c++ {
			a, b := ref.Class(c), got.Class(c)
			for i := 0; i < a.Dim(); i++ {
				if a.Get(i) != b.Get(i) {
					t.Fatalf("trial %d class %d dim %d: %d != %d", trial, c, i, b.Get(i), a.Get(i))
				}
			}
		}
	}
}

func TestAggregatorSlotValidation(t *testing.T) {
	if _, err := NewAggregator(64, 2, 0); err == nil {
		t.Fatal("zero slots accepted")
	}
	// Each push carries a real model frame, so ServeOne gets past the
	// read and the rejection must come from slot validation, not from an
	// I/O timeout.
	for _, slot := range []int{-1, 2, 5} {
		agg := must(NewAggregator(64, 2, 2))
		agg.SetIOTimeout(time.Second)
		merged := make(chan error, 1)
		release := make(chan struct{})
		close(release)
		pullErr, serveErr := pushAndServe(t, agg, slot, merged, release)
		if serveErr == nil || !strings.Contains(serveErr.Error(), "out of range") {
			t.Fatalf("slot %d: ServeOne error %v, want an out-of-range rejection", slot, serveErr)
		}
		if pullErr == nil || !strings.Contains(pullErr.Error(), "out of range") {
			t.Fatalf("slot %d: worker Pull error %v, want the out-of-range rejection", slot, pullErr)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewWorker(Config{Features: 0, Classes: 2}); err == nil {
		t.Fatal("zero features accepted")
	}
	if _, err := NewWorker(Config{Features: 4, Classes: 1}); err == nil {
		t.Fatal("single class accepted")
	}
	if _, _, err := Federated(Config{Features: 4, Classes: 2}, nil); err == nil {
		t.Fatal("empty shards accepted")
	}
}

func TestAggregatorRejectsWrongShape(t *testing.T) {
	spec, shards, _ := shardedDataset(t, "APRI", 2, 100)
	// Worker dims disagree with the aggregator's.
	cfg := federatedConfig(spec, 512)
	cfg.IOTimeout = time.Second
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Train(shards[0].X, shards[0].Y); err != nil {
		t.Fatal(err)
	}
	agg := must(NewAggregator(1024, spec.Classes, 1)) // mismatched dimension
	agg.SetIOTimeout(time.Second)
	a, b := net.Pipe()
	merged := make(chan error, 1)
	release := make(chan struct{})
	close(release)
	done := make(chan error, 1)
	go func() { done <- agg.ServeOne(b, 0, merged, release) }()
	if err := w.Push(a); err != nil {
		t.Fatal(err)
	}
	// Reading the rejection frame frees the aggregator's reply write.
	// Both ends run with one-second I/O deadlines; a timeout must not
	// stand in for the rejection.
	const want = "dim 512 != model dim 1024"
	if err := w.Pull(a); err == nil || errors.Is(err, os.ErrDeadlineExceeded) || !strings.Contains(err.Error(), want) {
		t.Fatalf("worker Pull error %v, want %q", err, want)
	}
	if err := <-done; err == nil || errors.Is(err, os.ErrDeadlineExceeded) || !strings.Contains(err.Error(), want) {
		t.Fatalf("ServeOne error %v, want %q", err, want)
	}
	_ = a.Close()
	_ = b.Close()
}

// must unwraps a constructor result; tests treat construction failure
// as fatal.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// wrapCountConn is a pass-through net.Conn that counts traffic, used to
// verify the WrapWorkerConn fault-injection hook sits on the wire path.
type wrapCountConn struct {
	net.Conn
	wrote, read *int64
	closed      *bool
}

func (c *wrapCountConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	*c.wrote += int64(n)
	return n, err
}

func (c *wrapCountConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	*c.read += int64(n)
	return n, err
}

func (c *wrapCountConn) Close() error {
	*c.closed = true
	return c.Conn.Close()
}

func TestWrapWorkerConnHook(t *testing.T) {
	spec, shards, _ := shardedDataset(t, "APRI", 3, 120)

	// Reference round without the hook.
	_, want, err := Federated(federatedConfig(spec, 500), shards)
	if err != nil {
		t.Fatal(err)
	}

	wrote := make([]int64, len(shards))
	read := make([]int64, len(shards))
	closed := make([]bool, len(shards))
	cfg := federatedConfig(spec, 500)
	cfg.WrapWorkerConn = func(slot int, conn net.Conn) net.Conn {
		if slot < 0 || slot >= len(shards) {
			t.Errorf("hook saw slot %d", slot)
		}
		return &wrapCountConn{Conn: conn, wrote: &wrote[slot], read: &read[slot], closed: &closed[slot]}
	}
	_, got, err := Federated(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	for slot := range shards {
		if wrote[slot] == 0 || read[slot] == 0 {
			t.Fatalf("slot %d traffic did not flow through the wrapper (wrote=%d read=%d)", slot, wrote[slot], read[slot])
		}
		if !closed[slot] {
			t.Fatalf("slot %d wrapper was not closed", slot)
		}
	}
	// A transparent wrapper must not perturb the aggregate.
	for c := 0; c < spec.Classes; c++ {
		g, w := got.Class(c), want.Class(c)
		for i := 0; i < g.Dim(); i++ {
			if g.Get(i) != w.Get(i) {
				t.Fatalf("class %d dim %d: wrapped %d != unwrapped %d", c, i, g.Get(i), w.Get(i))
			}
		}
	}
}
