package core

import (
	"errors"
	"fmt"

	"edgehd/internal/hdc"
)

// Residual accumulates negative user feedback between model updates —
// the residual hypervectors of §IV-D (Fig 5). Each class has one
// accumulator, initially zero. When a user reports that a prediction was
// wrong, the query hypervector is added to the residual of the class the
// model (incorrectly) chose. At propagation time the residuals are
// subtracted from the model locally and shipped to the parent node,
// batching many feedback events into one cheap transfer.
type Residual struct {
	res []hdc.Acc
	// count tracks the number of feedback events folded into each class
	// residual since the last Reset, for diagnostics and tests.
	count []int
}

// NewResidual returns zeroed residual hypervectors for k classes of
// dimension d.
func NewResidual(d, k int) (*Residual, error) {
	if d <= 0 || k <= 0 {
		return nil, fmt.Errorf("core: non-positive residual size %dx%d", d, k)
	}
	r := &Residual{res: make([]hdc.Acc, k), count: make([]int, k)}
	for i := range r.res {
		r.res[i] = hdc.NewAcc(d)
	}
	return r, nil
}

// Dim returns the hypervector dimensionality.
func (r *Residual) Dim() int { return r.res[0].Dim() }

// NegativeFeedback records that the model predicted predictedClass for
// query q and the user rejected the prediction. Following Fig 5a, the
// query is accumulated into the residual of the incorrectly matched
// class (it will later be subtracted from that class hypervector).
func (r *Residual) NegativeFeedback(predictedClass int, q hdc.Bipolar) {
	r.res[predictedClass].AddBipolar(q)
	r.count[predictedClass]++
}

// TotalFeedback returns the number of feedback events accumulated across
// all classes since the last Reset.
func (r *Residual) TotalFeedback() int {
	t := 0
	for _, c := range r.count {
		t += c
	}
	return t
}

// AddAcc folds an externally produced residual (one received from a
// child, after hierarchical encoding) into class i.
func (r *Residual) AddAcc(i int, a hdc.Acc) error {
	if a.Dim() != r.Dim() {
		return errors.New("core: residual dimension mismatch")
	}
	r.res[i].AddAcc(a)
	r.count[i]++
	return nil
}

// ApplyTo performs the model-update step (Fig 5b, step 2): subtract each
// residual hypervector from the corresponding class hypervector of m,
// then clear the residuals. It returns an error on shape mismatch.
func (r *Residual) ApplyTo(m *Model) error {
	if m.Classes() != len(r.res) || m.Dim() != r.Dim() {
		return errors.New("core: residual/model shape mismatch")
	}
	for i, a := range r.res {
		m.classHV[i].SubAcc(a)
	}
	m.dirty.Store(true)
	r.Reset()
	return nil
}

// Snapshot returns copies of all residual accumulators (for propagation
// to the parent, Fig 5b step 3) without clearing them.
func (r *Residual) Snapshot() []hdc.Acc {
	out := make([]hdc.Acc, len(r.res))
	for i, a := range r.res {
		out[i] = a.Clone()
	}
	return out
}

// Reset zeroes all residuals and counters.
func (r *Residual) Reset() {
	for i := range r.res {
		r.res[i].Reset()
		r.count[i] = 0
	}
}
