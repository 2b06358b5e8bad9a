package encoding

import (
	"fmt"
	"math"

	"edgehd/internal/hdc"
	"edgehd/internal/rng"
)

// Nonlinear is the paper's universal non-linear encoder (§III-A, Fig 2b).
// Each hypervector dimension is
//
//	h_i = cos(B_i·F + b_i) · sin(B_i·F)
//
// with B_i ~ N(0, 1/ℓ²)ⁿ and b_i ~ U(0, 2π) drawn once at construction,
// followed by sign() binarization. The product of the phase-shifted
// cosine and the sine decorrelates the dimensions beyond the plain RFF
// map while keeping the RBF-kernel geometry: nearby inputs agree on many
// signs, distant inputs agree on ~half.
type Nonlinear struct {
	n, d        int
	lengthScale float64
	bases       [][]float64 // d rows of n Gaussian weights
	biases      []float64   // d uniform phase shifts
}

var _ Encoder = (*Nonlinear)(nil)

// NonlinearConfig parameterizes the encoder. Zero values select the
// paper's defaults.
type NonlinearConfig struct {
	// LengthScale ℓ of the RBF kernel exp(−‖x−y‖²/(2ℓ²)); weights are
	// drawn from N(0, 1/ℓ²). Default √n: for z-scored features the
	// expected squared distance between two random samples grows
	// linearly with the feature count, so the kernel bandwidth must
	// grow with √n to keep similarities informative (the same
	// median-distance heuristic the paper's grid search would land on).
	LengthScale float64
}

// NewNonlinear constructs an encoder for n features and dimension d,
// drawing all bases from seed.
func NewNonlinear(n, d int, seed uint64, cfg NonlinearConfig) (*Nonlinear, error) {
	if n <= 0 || d <= 0 {
		return nil, fmt.Errorf("encoding: non-positive encoder size %dx%d", n, d)
	}
	ls := cfg.LengthScale
	if ls == 0 {
		ls = math.Sqrt(float64(n))
	}
	r := rng.New(seed)
	e := &Nonlinear{
		n:           n,
		d:           d,
		lengthScale: ls,
		bases:       make([][]float64, d),
		biases:      make([]float64, d),
	}
	inv := 1 / ls
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

// Dim implements Encoder.
func (e *Nonlinear) Dim() int { return e.d }

// NumFeatures implements Encoder.
func (e *Nonlinear) NumFeatures() int { return e.n }

// EncodeFloat returns the pre-binarization hypervector
// h_i = cos(B_i·F + b_i)·sin(B_i·F).
func (e *Nonlinear) EncodeFloat(features []float64) []float64 {
	checkFeatures(len(features), e.n)
	out := make([]float64, e.d)
	for i := 0; i < e.d; i++ {
		dot := hdc.Dot(e.bases[i], features)
		out[i] = math.Cos(dot+e.biases[i]) * math.Sin(dot)
	}
	return out
}

// Encode implements Encoder: the float encoding followed by sign().
func (e *Nonlinear) Encode(features []float64) hdc.Bipolar {
	return hdc.FromSigns(e.EncodeFloat(features))
}
