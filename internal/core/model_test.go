package core

import (
	"math"
	"testing"
	"testing/quick"

	"edgehd/internal/encoding"
	"edgehd/internal/hdc"
	"edgehd/internal/rng"
)

// blobs generates a simple k-class Gaussian-cluster problem and encodes
// it with a fresh non-linear encoder.
func blobs(t *testing.T, n, k, perClass, dim int, noise float64, seed uint64) (*encoding.Nonlinear, []Sample, []Sample) {
	t.Helper()
	r := rng.New(seed)
	enc := must(encoding.NewNonlinear(n, dim, seed+1, encoding.NonlinearConfig{LengthScale: 2}))
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = r.NormVec(n, nil)
		for i := range centers[c] {
			centers[c][i] *= 2
		}
	}
	gen := func(count int) []Sample {
		out := make([]Sample, 0, count*k)
		for c := 0; c < k; c++ {
			for s := 0; s < count; s++ {
				f := make([]float64, n)
				for i := range f {
					f[i] = centers[c][i] + noise*r.Norm()
				}
				out = append(out, Sample{HV: enc.Encode(f), Label: c})
			}
		}
		return out
	}
	return enc, gen(perClass), gen(perClass / 2)
}

// accuracy returns the fraction of samples m classifies correctly.
func accuracy(m *Model, samples []Sample) float64 {
	correct := 0
	for _, s := range samples {
		if m.Predict(s.HV) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

func trainModel(samples []Sample, dim, k, epochs int) *Model {
	m := must(NewModel(dim, k))
	for _, s := range samples {
		m.Add(s.Label, s.HV)
	}
	m.Retrain(samples, epochs)
	return m
}

func TestInitialTrainingSeparatesBlobs(t *testing.T) {
	const dim, k = 2048, 4
	_, train, test := blobs(t, 10, k, 30, dim, 0.3, 1)
	m := must(NewModel(dim, k))
	for _, s := range train {
		m.Add(s.Label, s.HV)
	}
	if acc := accuracy(m, test); acc < 0.95 {
		t.Fatalf("initial training accuracy = %v, want ≥ 0.95", acc)
	}
}

func TestRetrainImprovesHardProblem(t *testing.T) {
	const dim, k = 2048, 4
	_, train, _ := blobs(t, 10, k, 40, dim, 1.2, 2)
	m := must(NewModel(dim, k))
	for _, s := range train {
		m.Add(s.Label, s.HV)
	}
	before := accuracy(m, train)
	stats := m.Retrain(train, 20)
	after := accuracy(m, train)
	if after < before {
		t.Fatalf("retraining hurt training accuracy: %v → %v", before, after)
	}
	if stats.Epochs == 0 || len(stats.Errors) != stats.Epochs {
		t.Fatalf("bad retrain stats: %+v", stats)
	}
}

func TestRetrainEarlyStopsOnSeparableData(t *testing.T) {
	const dim, k = 2048, 3
	_, train, _ := blobs(t, 8, k, 20, dim, 0.1, 3)
	m := trainModel(train, dim, k, 0)
	stats := m.Retrain(train, 20)
	if stats.Epochs != 1 || stats.Errors[0] != 0 {
		t.Fatalf("expected immediate convergence, got %+v", stats)
	}
}

func TestRetrainDefaultEpochs(t *testing.T) {
	m := must(NewModel(64, 2))
	r := rng.New(4)
	// Contradictory labels on the same hypervector force errors forever.
	h := hdc.RandomBipolar(64, r)
	samples := []Sample{{HV: h, Label: 0}, {HV: h, Label: 1}}
	stats := m.Retrain(samples, 0)
	if stats.Epochs != DefaultRetrainEpochs {
		t.Fatalf("default epochs = %d, want %d", stats.Epochs, DefaultRetrainEpochs)
	}
}

func TestClassifyReturnsAllSimilarities(t *testing.T) {
	const dim, k = 1024, 5
	_, train, _ := blobs(t, 6, k, 10, dim, 0.3, 5)
	m := trainModel(train, dim, k, 5)
	cls, sims := m.Classify(train[0].HV)
	if len(sims) != k {
		t.Fatalf("got %d similarities, want %d", len(sims), k)
	}
	if cls != hdc.ArgMax(sims) {
		t.Fatal("Classify winner disagrees with ArgMax of similarities")
	}
	for _, s := range sims {
		if s < -1.01 || s > 1.01 {
			t.Fatalf("similarity out of range: %v", s)
		}
	}
}

func TestConfidenceHigherForCleanSamples(t *testing.T) {
	const dim, k = 2048, 3
	_, train, _ := blobs(t, 10, k, 30, dim, 0.3, 6)
	m := trainModel(train, dim, k, 5)
	_, confClean := m.Confidence(train[0].HV)
	// A random query should have much lower confidence.
	r := rng.New(7)
	var confRandom float64
	for i := 0; i < 20; i++ {
		_, c := m.Confidence(hdc.RandomBipolar(dim, r))
		confRandom += c
	}
	confRandom /= 20
	if confClean <= confRandom {
		t.Fatalf("clean confidence %v not above random-query confidence %v", confClean, confRandom)
	}
	if confClean < 0.5 {
		t.Fatalf("clean-sample confidence too low: %v", confClean)
	}
}

func TestConfidenceOfEdgeCases(t *testing.T) {
	if c := ConfidenceOf([]float64{0.9}); c != 1 {
		t.Fatalf("single-class confidence = %v, want 1", c)
	}
	if c := ConfidenceOf([]float64{0.5, 0.5, 0.5}); math.Abs(c-1.0/3.0) > 1e-9 {
		t.Fatalf("all-equal confidence = %v, want 1/3", c)
	}
	// Perfectly separated similarities approach certainty.
	if c := ConfidenceOf([]float64{1, -1}); c < 0.95 {
		t.Fatalf("separated confidence = %v, want ≥ 0.95", c)
	}
}

func TestMergeEquivalentToJointTraining(t *testing.T) {
	// Bundling is associative: training two partial models on disjoint
	// data and merging equals training one model on the union. This is
	// the aggregation property hierarchical learning relies on.
	const dim, k = 1024, 3
	_, train, _ := blobs(t, 8, k, 20, dim, 0.5, 8)
	half := len(train) / 2
	a, b := must(NewModel(dim, k)), must(NewModel(dim, k))
	joint := must(NewModel(dim, k))
	for i, s := range train {
		if i < half {
			a.Add(s.Label, s.HV)
		} else {
			b.Add(s.Label, s.HV)
		}
		joint.Add(s.Label, s.HV)
	}
	for c := 0; c < k; c++ {
		ca, cj := a.Class(c), joint.Class(c)
		ca.AddAcc(b.Class(c))
		for i := 0; i < dim; i++ {
			if ca.Get(i) != cj.Get(i) {
				t.Fatalf("merged model differs from jointly trained model at class %d dim %d", c, i)
			}
		}
	}
}

func TestSetClassValidation(t *testing.T) {
	m := must(NewModel(64, 2))
	if err := m.SetClass(0, hdc.NewAcc(32)); err == nil {
		t.Fatal("SetClass accepted wrong dimension")
	}
	a := hdc.NewAcc(64)
	a.AddBipolar(hdc.RandomBipolar(64, rng.New(1)))
	if err := m.SetClass(1, a); err != nil {
		t.Fatal(err)
	}
	if m.Class(1).IsZero() {
		t.Fatal("SetClass did not install the hypervector")
	}
}

func TestAccuracyEmptySet(t *testing.T) {
	clf := must(NewClassifier(newTestEncoder(4, 64, 1), 2))
	if acc, err := clf.Evaluate(nil, nil); err != nil || acc != 0 {
		t.Fatalf("accuracy on empty set = %v, %v", acc, err)
	}
}

// Property: normalization cache stays consistent — interleaving
// mutations and classifications must match a freshly built model.
func TestQuickNormCacheConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const dim, k = 256, 3
		m := must(NewModel(dim, k))
		var added []Sample
		for i := 0; i < 12; i++ {
			s := Sample{HV: hdc.RandomBipolar(dim, r), Label: r.Intn(k)}
			m.Add(s.Label, s.HV)
			added = append(added, s)
			// Interleave a classification to populate the cache.
			m.Predict(s.HV)
		}
		fresh := must(NewModel(dim, k))
		for _, s := range added {
			fresh.Add(s.Label, s.HV)
		}
		q := hdc.RandomBipolar(dim, r)
		a, b := m.Similarities(q), fresh.Similarities(q)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: similarity of a class's own sign vector is the highest
// among random queries for a single-sample class.
func TestQuickOwnClassMostSimilar(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const dim = 512
		m := must(NewModel(dim, 2))
		h0 := hdc.RandomBipolar(dim, r)
		h1 := hdc.RandomBipolar(dim, r)
		m.Add(0, h0)
		m.Add(1, h1)
		return m.Predict(h0) == 0 && m.Predict(h1) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
