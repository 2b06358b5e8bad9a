package core

import (
	"edgehd/internal/hdc"
	"edgehd/internal/parallel"
)

// AddAll bundles every sample into its class hypervector, equivalent to
// calling Add once per sample in order, with the bundling fanned over
// the pool. Each fixed chunk accumulates per-class partials, which then
// tree-reduce in chunk order; integer bundling commutes bitwise, so the
// result is byte-identical to the sequential loop for any worker count.
// A nil pool (or one worker) takes the sequential loop directly.
func (m *Model) AddAll(p *parallel.Pool, samples []Sample) {
	if len(samples) == 0 {
		return
	}
	spans := parallel.Chunks(len(samples))
	if p.Workers() <= 1 || len(spans) <= 1 {
		for _, s := range samples {
			m.classHV[s.Label].AddBipolar(s.HV)
		}
		m.dirty.Store(true)
		return
	}
	partials := make([][]hdc.Acc, len(spans))
	p.RunChunks("core_bundle", spans, func(ci int, sp parallel.Span) {
		accs := make([]hdc.Acc, m.classes)
		for i := sp.Lo; i < sp.Hi; i++ {
			s := samples[i]
			if accs[s.Label].Dim() == 0 {
				accs[s.Label] = hdc.NewAcc(m.dim)
			}
			accs[s.Label].AddBipolar(s.HV)
		}
		partials[ci] = accs
	})
	for c := 0; c < m.classes; c++ {
		parts := make([]hdc.Acc, 0, len(partials))
		for _, accs := range partials {
			if accs[c].Dim() != 0 {
				parts = append(parts, accs[c])
			}
		}
		if len(parts) == 0 {
			continue
		}
		m.classHV[c].AddAcc(p.SumAccs("core_bundle_reduce", parts))
	}
	m.dirty.Store(true)
}

// Speculation window bounds for RetrainParallel. The window size only
// controls how much prediction work runs ahead of the serial update
// stream — it never influences which updates are applied — so adapting
// it is free of determinism concerns.
const (
	retrainWindowMin = 32
	retrainWindowMax = 1024
)

// RetrainParallel is Retrain with the prediction work of each epoch
// fanned over the pool, producing byte-identical models, epoch counts
// and error counts for any worker count.
//
// The sequential loop is inherently serial: each misprediction mutates
// the model that later predictions consult. The parallel path therefore
// speculates: it predicts a window of upcoming samples concurrently
// against the frozen current model, then consumes those predictions in
// order only up to the first misprediction — exactly the samples the
// sequential loop would have predicted against this same model state.
// The update is applied serially, the speculation window restarts after
// it, and the window grows while predictions keep being consumed
// cleanly (late epochs, where almost nothing mispredicts, approach full
// window-parallelism; early chaotic epochs fall back toward serial).
//
// A nil pool or one worker delegates to the exact legacy loop.
func (m *Model) RetrainParallel(samples []Sample, epochs int, p *parallel.Pool) RetrainStats {
	if p.Workers() <= 1 {
		return m.Retrain(samples, epochs)
	}
	if epochs <= 0 {
		epochs = DefaultRetrainEpochs
	}
	stats := RetrainStats{}
	preds := make([]int, retrainWindowMax)
	for e := 0; e < epochs; e++ {
		wrong := 0
		window := retrainWindowMin
		for i := 0; i < len(samples); {
			end := i + window
			if end > len(samples) {
				end = len(samples)
			}
			// Warm the normalization cache once on this goroutine so the
			// workers' Predict calls are pure reads.
			m.normalized()
			base := i
			p.Run("core_retrain_predict", end-i, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					preds[j] = m.Predict(samples[base+j].HV)
				}
			})
			clean := true
			j := i
			for ; j < end; j++ {
				pred := preds[j-base]
				if pred != samples[j].Label {
					m.classHV[samples[j].Label].AddBipolar(samples[j].HV)
					m.classHV[pred].SubBipolar(samples[j].HV)
					m.dirty.Store(true)
					wrong++
					j++
					clean = false
					break
				}
			}
			i = j
			if clean {
				if window < retrainWindowMax {
					window *= 2
				}
			} else {
				window = retrainWindowMin
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
