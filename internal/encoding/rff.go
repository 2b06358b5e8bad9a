package encoding

import (
	"fmt"
	"math"

	"edgehd/internal/rng"
)

// RFF is the raw random-Fourier-feature map of eq. (2),
//
//	H_D(F) = sqrt(2/D) · cos(B·F + b),
//
// which approximates the shift-invariant RBF kernel through inner
// products (eq. 1): H_D(x)ᵀH_D(y) → exp(−‖x−y‖²/(2ℓ²)) as D → ∞.
// EdgeHD binarizes a variant of this map for classification; the raw map
// is kept for the kernel-approximation property tests and as the feature
// map of the RBF-SVM baseline.
type RFF struct {
	n, d        int
	lengthScale float64
	bases       [][]float64
	biases      []float64
}

// NewRFF constructs the feature map for n inputs and d output features.
// lengthScale ℓ sets the kernel bandwidth; pass 0 for the default of √n
// (see NonlinearConfig.LengthScale).
func NewRFF(n, d int, seed uint64, lengthScale float64) (*RFF, error) {
	if n <= 0 || d <= 0 {
		return nil, fmt.Errorf("encoding: non-positive encoder size %dx%d", n, d)
	}
	if lengthScale == 0 {
		lengthScale = math.Sqrt(float64(n))
	}
	r := rng.New(seed)
	e := &RFF{
		n:           n,
		d:           d,
		lengthScale: lengthScale,
		bases:       make([][]float64, d),
		biases:      make([]float64, d),
	}
	inv := 1 / lengthScale
	for i := 0; i < d; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = r.Norm() * inv
		}
		e.bases[i] = row
		e.biases[i] = r.Uniform(0, 2*math.Pi)
	}
	return e, nil
}

// Map computes H_D(F).
func (e *RFF) Map(features []float64) []float64 {
	checkFeatures(len(features), e.n)
	out := make([]float64, e.d)
	scale := math.Sqrt(2 / float64(e.d))
	for i := 0; i < e.d; i++ {
		var dot float64
		for j, w := range e.bases[i] {
			dot += w * features[j]
		}
		out[i] = scale * math.Cos(dot+e.biases[i])
	}
	return out
}
