package core

import (
	"testing"

	"edgehd/internal/hdc"
	"edgehd/internal/parallel"
	"edgehd/internal/rng"
)

// synthSamples builds a deterministic, partially overlapping k-class
// sample set that forces several retraining epochs.
func synthSamples(t *testing.T, n, dim, k int, seed uint64) []Sample {
	t.Helper()
	r := rng.New(seed)
	protos := make([]hdc.Bipolar, k)
	for i := range protos {
		protos[i] = hdc.RandomBipolar(dim, r)
	}
	samples := make([]Sample, n)
	for i := range samples {
		label := i % k
		hv := protos[label].Clone()
		// Flip a third of the components to create class overlap.
		for f := 0; f < dim/3; f++ {
			p := r.Intn(dim)
			hv.Set(p, hv.Get(p) < 0)
		}
		samples[i] = Sample{HV: hv, Label: label}
	}
	return samples
}

func modelsEqual(a, b *Model) bool {
	if a.Dim() != b.Dim() || a.Classes() != b.Classes() {
		return false
	}
	for c := 0; c < a.Classes(); c++ {
		av, bv := a.Class(c).Ints(), b.Class(c).Ints()
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

func TestAddAllMatchesSequentialAdd(t *testing.T) {
	const n, dim, k = 230, 512, 5
	samples := synthSamples(t, n, dim, k, 11)
	seq, err := NewModel(dim, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		seq.Add(s.Label, s.HV)
	}
	for _, w := range []int{1, 2, 8} {
		m, err := NewModel(dim, k)
		if err != nil {
			t.Fatal(err)
		}
		m.AddAll(parallel.New(w), samples)
		if !modelsEqual(seq, m) {
			t.Fatalf("AddAll workers=%d differs from sequential Add", w)
		}
	}
	// nil pool path and empty input path.
	m, _ := NewModel(dim, k)
	m.AddAll(nil, samples)
	if !modelsEqual(seq, m) {
		t.Fatal("AddAll nil pool differs from sequential Add")
	}
	m.AddAll(parallel.New(4), nil)
}

func TestRetrainParallelMatchesSequential(t *testing.T) {
	const n, dim, k = 180, 384, 4
	samples := synthSamples(t, n, dim, k, 23)
	build := func() *Model {
		m, err := NewModel(dim, k)
		if err != nil {
			t.Fatal(err)
		}
		m.AddAll(nil, samples)
		return m
	}
	seq := build()
	seqStats := seq.Retrain(samples, 8)
	for _, w := range []int{2, 8} {
		m := build()
		stats := m.RetrainParallel(samples, 8, parallel.New(w))
		if !modelsEqual(seq, m) {
			t.Fatalf("RetrainParallel workers=%d model differs from sequential", w)
		}
		if stats.Epochs != seqStats.Epochs {
			t.Fatalf("workers=%d: %d epochs, sequential %d", w, stats.Epochs, seqStats.Epochs)
		}
		for e := range seqStats.Errors {
			if stats.Errors[e] != seqStats.Errors[e] {
				t.Fatalf("workers=%d epoch %d: %d errors, sequential %d",
					w, e, stats.Errors[e], seqStats.Errors[e])
			}
		}
	}
	// One worker must take the exact legacy code path.
	m := build()
	if stats := m.RetrainParallel(samples, 8, parallel.New(1)); stats.Epochs != seqStats.Epochs {
		t.Fatalf("RetrainParallel workers=1 epochs %d != %d", stats.Epochs, seqStats.Epochs)
	}
	if !modelsEqual(seq, m) {
		t.Fatal("RetrainParallel workers=1 model differs")
	}
}

func TestAccuracyParallelMatchesSequential(t *testing.T) {
	// Classifier.Evaluate counts correct predictions per chunk and sums
	// the counts in chunk order, so every worker count reproduces the
	// sequential count exactly.
	const rows, n, k = 150, 8, 3
	r := rng.New(31)
	xs := make([][]float64, rows)
	ys := make([]int, rows)
	for i := range xs {
		ys[i] = i % k
		xs[i] = r.NormVec(n, nil)
		xs[i][ys[i]] += 1.5
	}
	clf := must(NewClassifier(newTestEncoder(n, 256, 32), k))
	if _, err := clf.Fit(xs, ys, 3); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range xs {
		if clf.Predict(x) == ys[i] {
			correct++
		}
	}
	if correct == 0 || correct == rows {
		t.Fatalf("setup: %d/%d correct, want a partial score", correct, rows)
	}
	want := float64(correct) / rows
	for _, w := range []int{1, 2, 8} {
		clf.SetPool(parallel.New(w))
		if got, err := clf.Evaluate(xs, ys); err != nil || got != want {
			t.Fatalf("Evaluate workers=%d = %v, %v; want %v", w, got, err, want)
		}
	}
}
