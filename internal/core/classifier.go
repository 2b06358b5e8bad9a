package core

import (
	"fmt"

	"edgehd/internal/encoding"
	"edgehd/internal/hdc"
	"edgehd/internal/parallel"
	"edgehd/internal/telemetry"
)

// Classifier couples an encoder with a Model: the end-node and
// centralized learning pipeline of Fig 2 (encode → train → retrain →
// associative search).
type Classifier struct {
	enc   encoding.Encoder
	model *Model
	pool  *parallel.Pool
	met   clfMetrics
}

// clfMetrics holds the classifier's pre-resolved telemetry instruments
// (all nil, hence no-op, until SetTelemetry attaches a registry).
type clfMetrics struct {
	encodeTotal   *telemetry.Counter
	encodeSeconds *telemetry.Histogram
	predictTotal  *telemetry.Counter
	trainSamples  *telemetry.Counter
	retrainEpochs *telemetry.Counter
}

// SetTelemetry attaches a metrics registry to the classifier; nil
// detaches it. Encode latency, prediction counts and training volume
// then surface as clf_* metrics.
func (c *Classifier) SetTelemetry(reg *telemetry.Registry) {
	c.met = clfMetrics{
		encodeTotal:   reg.Counter("clf_encode_total"),
		encodeSeconds: reg.Histogram("clf_encode_seconds"),
		predictTotal:  reg.Counter("clf_predict_total"),
		trainSamples:  reg.Counter("clf_train_samples_total"),
		retrainEpochs: reg.Counter("clf_retrain_epochs_total"),
	}
}

// encode runs the encoder with optional latency accounting. Timing
// goes through telemetry's StartTimer so this package never touches
// the wall clock directly (det-rand invariant).
func (c *Classifier) encode(features []float64) hdc.Bipolar {
	c.met.encodeTotal.Add(1)
	stop := c.met.encodeSeconds.StartTimer()
	hv := c.enc.Encode(features)
	stop()
	return hv
}

// NewClassifier builds an untrained classifier over enc with k classes.
func NewClassifier(enc encoding.Encoder, k int) (*Classifier, error) {
	m, err := NewModel(enc.Dim(), k)
	if err != nil {
		return nil, err
	}
	return &Classifier{enc: enc, model: m}, nil
}

// SetPool attaches a parallel execution pool; batch encoding, initial
// bundling, retraining and evaluation then fan over its workers. The
// parallel engine guarantees byte-identical results for any worker
// count, so this is purely a throughput knob. A nil pool (the default)
// keeps the exact sequential path.
func (c *Classifier) SetPool(p *parallel.Pool) { c.pool = p }

// Model exposes the underlying model (shared, not a copy) so the
// hierarchy can transfer and aggregate it.
func (c *Classifier) Model() *Model { return c.model }

// Encoder returns the classifier's encoder.
func (c *Classifier) Encoder() encoding.Encoder { return c.enc }

// EncodeAll encodes a feature matrix into training samples through the
// batch path, fanning rows over the attached pool (sequential when no
// pool is attached). It returns an error when labels and rows disagree
// or a label is out of range; labels validate up front so no encoding
// work is spent on a rejected batch.
func (c *Classifier) EncodeAll(features [][]float64, labels []int) ([]Sample, error) {
	if len(features) != len(labels) {
		return nil, fmt.Errorf("core: %d feature rows but %d labels", len(features), len(labels))
	}
	for i, l := range labels {
		if l < 0 || l >= c.model.classes {
			return nil, fmt.Errorf("core: label %d at row %d out of range [0,%d)", l, i, c.model.classes)
		}
	}
	c.met.encodeTotal.Add(int64(len(features)))
	stop := c.met.encodeSeconds.StartTimer()
	hvs := encoding.EncodeBatch(c.pool, c.enc, features)
	stop()
	samples := make([]Sample, len(features))
	for i, hv := range hvs {
		samples[i] = Sample{HV: hv, Label: labels[i]}
	}
	return samples, nil
}

// Fit runs the full §III-B training pipeline: encode every row, bundle
// the initial class hypervectors, then retrain for epochs iterations
// (0 = the paper's default of 20). It returns the retraining statistics.
// Every stage fans over the attached pool with byte-identical results
// for any worker count.
func (c *Classifier) Fit(features [][]float64, labels []int, epochs int) (RetrainStats, error) {
	samples, err := c.EncodeAll(features, labels)
	if err != nil {
		return RetrainStats{}, err
	}
	c.model.AddAll(c.pool, samples)
	c.met.trainSamples.Add(int64(len(samples)))
	stats := c.model.RetrainParallel(samples, epochs, c.pool)
	c.met.retrainEpochs.Add(int64(stats.Epochs))
	return stats, nil
}

// Predict classifies one feature vector.
func (c *Classifier) Predict(features []float64) int {
	c.met.predictTotal.Add(1)
	return c.model.Predict(c.encode(features))
}

// PredictConfidence classifies one feature vector and reports the
// confidence level used by the §IV-C inference router.
func (c *Classifier) PredictConfidence(features []float64) (class int, conf float64) {
	c.met.predictTotal.Add(1)
	return c.model.Confidence(c.encode(features))
}

// Evaluate returns classification accuracy over a labelled test set,
// fanning encode+predict over the attached pool. Per-chunk correct
// counts sum in chunk order, matching the sequential count exactly.
func (c *Classifier) Evaluate(features [][]float64, labels []int) (float64, error) {
	if len(features) != len(labels) {
		return 0, fmt.Errorf("core: %d feature rows but %d labels", len(features), len(labels))
	}
	if len(features) == 0 {
		return 0, nil
	}
	c.met.predictTotal.Add(int64(len(features)))
	c.model.normalized()
	spans := parallel.Chunks(len(features))
	counts := make([]int, len(spans))
	c.pool.RunChunks("clf_evaluate", spans, func(ci int, sp parallel.Span) {
		n := 0
		for i := sp.Lo; i < sp.Hi; i++ {
			if c.model.Predict(c.enc.Encode(features[i])) == labels[i] {
				n++
			}
		}
		counts[ci] = n
	})
	correct := 0
	for _, n := range counts {
		correct += n
	}
	return float64(correct) / float64(len(features)), nil
}
