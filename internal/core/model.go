// Package core implements the paper's HD classification algorithm
// (§III-B): initial training by class-wise bundling, iterative
// retraining with add/subtract updates, associative-search inference
// over pre-normalized class hypervectors, softmax confidence estimation
// (§IV-C), and residual-hypervector online learning (§IV-D).
//
// The package is deliberately encoder-agnostic: a Model consumes encoded
// bipolar hypervectors, because in the hierarchy (§IV) gateway and
// central nodes train on hypervectors they received from children and
// never see raw features. Classifier couples a Model with an encoder for
// the end-node / centralized use case.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"edgehd/internal/hdc"
)

// Sample is one encoded training example.
type Sample struct {
	HV    hdc.Bipolar
	Label int
}

// Model holds k class hypervectors of a fixed dimensionality. The zero
// value is unusable; construct with NewModel.
//
// Mutation (Add, SetClass, Retrain, ...) is single-writer and
// must not overlap any other model access. Read-only classification
// (Similarities, Classify, Predict, Confidence) is safe to
// call concurrently: the lazily rebuilt normalization cache is guarded
// by an atomic dirty flag and a mutex, which is what lets the parallel
// engine fan predictions over worker goroutines.
type Model struct {
	dim     int
	classes int
	classHV []hdc.Acc
	// norm caches the pre-normalized class hypervectors (§V-B: cosine →
	// dot product against unit-norm models). It is invalidated by any
	// model mutation and rebuilt lazily under normMu; dirty is atomic so
	// concurrent readers that find the cache clean skip the lock.
	norm   [][]float64
	normMu sync.Mutex
	dirty  atomic.Bool
}

// NewModel returns an empty model with k classes of dimension d.
func NewModel(d, k int) (*Model, error) {
	if d <= 0 || k <= 0 {
		return nil, fmt.Errorf("core: non-positive model size %dx%d", d, k)
	}
	m := &Model{dim: d, classes: k, classHV: make([]hdc.Acc, k)}
	m.dirty.Store(true)
	for i := range m.classHV {
		m.classHV[i] = hdc.NewAcc(d)
	}
	return m, nil
}

// Dim returns the hypervector dimensionality.
func (m *Model) Dim() int { return m.dim }

// Classes returns the number of classes k.
func (m *Model) Classes() int { return m.classes }

// Class returns a copy of class i's accumulated hypervector.
func (m *Model) Class(i int) hdc.Acc { return m.classHV[i].Clone() }

// SetClass replaces class i's hypervector; the hierarchy uses it to
// install hierarchically encoded class hypervectors received from
// children. It returns an error on dimension mismatch.
func (m *Model) SetClass(i int, a hdc.Acc) error {
	if a.Dim() != m.dim {
		return fmt.Errorf("core: class hypervector dim %d != model dim %d", a.Dim(), m.dim)
	}
	m.classHV[i] = a.Clone()
	m.dirty.Store(true)
	return nil
}

// Add bundles an encoded sample into its class hypervector — the
// initial-training step C^i = Σ_j H^i_j.
func (m *Model) Add(label int, h hdc.Bipolar) {
	m.classHV[label].AddBipolar(h)
	m.dirty.Store(true)
}

// normalized returns the unit-norm float views of the class
// hypervectors, rebuilding the cache if the model changed. Concurrent
// read-only callers are safe: rebuilds are serialized by normMu with a
// double-checked atomic dirty flag, and the atomic load/store pair
// orders the cache writes before any reader that observes the clean
// flag.
func (m *Model) normalized() [][]float64 {
	if m.dirty.Load() {
		m.normMu.Lock()
		if m.dirty.Load() {
			if m.norm == nil {
				m.norm = make([][]float64, m.classes)
			}
			for i, c := range m.classHV {
				m.norm[i] = hdc.NormalizedAcc(c)
			}
			m.dirty.Store(false)
		}
		m.normMu.Unlock()
	}
	return m.norm
}

// Similarities returns the cosine similarity of q to every class
// hypervector.
func (m *Model) Similarities(q hdc.Bipolar) []float64 {
	norm := m.normalized()
	sims := make([]float64, m.classes)
	scale := 1 / math.Sqrt(float64(m.dim))
	for i, c := range norm {
		sims[i] = hdc.DotSigns(c, q) * scale
	}
	return sims
}

// Classify returns the class whose hypervector is most similar to q,
// together with all similarity values — the associative search.
func (m *Model) Classify(q hdc.Bipolar) (int, []float64) {
	sims := m.Similarities(q)
	return hdc.ArgMax(sims), sims
}

// Predict returns only the winning class.
func (m *Model) Predict(q hdc.Bipolar) int {
	c, _ := m.Classify(q)
	return c
}

// ConfidenceTemperature controls how sharply the softmax confidence
// separates the winning class (§IV-C). The paper thresholds the softmax
// of "normalized cosine similarity values"; cosine gaps between HD class
// models are small in absolute terms (a confident winner may lead the
// runner-up by ~0.1 of cosine), so the similarities are divided by this
// temperature before the softmax. 0.02 makes the paper's 0.75 threshold
// discriminate usefully: a 0.025 cosine gap yields ~0.78 confidence
// while a 0.01 gap yields ~0.62.
const ConfidenceTemperature = 0.02

// Confidence returns the predicted class and the softmax confidence of
// that prediction. A single-class model is always fully confident.
func (m *Model) Confidence(q hdc.Bipolar) (class int, conf float64) {
	sims := m.Similarities(q)
	class = hdc.ArgMax(sims)
	conf = ConfidenceOf(sims)
	return class, conf
}

// ConfidenceOf computes the §IV-C confidence level from a similarity
// vector: temperature-scaled softmax of the cosine similarities, taking
// the winning class's probability.
func ConfidenceOf(sims []float64) float64 {
	if len(sims) <= 1 {
		return 1
	}
	scaled := make([]float64, len(sims))
	for i, s := range sims {
		scaled[i] = s / ConfidenceTemperature
	}
	p := hdc.Softmax(scaled)
	return p[hdc.ArgMax(p)]
}

// RetrainStats reports the per-epoch misclassification counts of a
// Retrain run.
type RetrainStats struct {
	Epochs int
	// Errors[e] is the number of training samples the model updated on
	// during epoch e.
	Errors []int
}

// DefaultRetrainEpochs is the paper's retraining iteration count
// ("repeating 20 iterations yields sufficient convergence for all the
// tested datasets").
const DefaultRetrainEpochs = 20

// Retrain performs the §III-B retraining loop: for every sample, if the
// current model mispredicts, add the hypervector to the correct class
// and subtract it from the wrongly chosen class. It runs for at most
// epochs passes (0 selects DefaultRetrainEpochs) and stops early once an
// epoch makes no mistakes.
func (m *Model) Retrain(samples []Sample, epochs int) RetrainStats {
	if epochs <= 0 {
		epochs = DefaultRetrainEpochs
	}
	stats := RetrainStats{}
	for e := 0; e < epochs; e++ {
		wrong := 0
		for _, s := range samples {
			pred := m.Predict(s.HV)
			if pred != s.Label {
				m.classHV[s.Label].AddBipolar(s.HV)
				m.classHV[pred].SubBipolar(s.HV)
				m.dirty.Store(true)
				wrong++
			}
		}
		stats.Epochs++
		stats.Errors = append(stats.Errors, wrong)
		if wrong == 0 {
			break
		}
	}
	return stats
}
