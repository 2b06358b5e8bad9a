package encoding

import (
	"fmt"
	"math"

	"edgehd/internal/hdc"
	"edgehd/internal/rng"
)

// minWindow floors the per-row non-zero count of the sparse encoder.
const minWindow = 32

// Sparse is the FPGA-oriented variant of the non-linear encoder (§V-A).
// Instead of a dense n-wide Gaussian row per hypervector dimension, each
// row keeps a single contiguous window of w = max(1, round((1−s)·n))
// non-zero weights starting at a random feature index, stored as the
// window plus a log2(n)-bit start offset — exactly the BRAM layout the
// paper describes. Sparsity s = 0.8 is the paper's evaluation default
// ("the accuracy of EdgeHD is reported for D = 4000 dimensions and 80%
// sparsity"); it cuts the encoding MACs by 5× with little accuracy loss.
type Sparse struct {
	n, d        int
	window      int
	sparsity    float64
	lengthScale float64
	starts      []int       // d start offsets into the feature vector
	weights     [][]float64 // d windows of `window` Gaussian weights
	biases      []float64
}

var _ Encoder = (*Sparse)(nil)

// SparseConfig parameterizes the sparse encoder.
type SparseConfig struct {
	// Sparsity s ∈ [0, 1): the fraction of zero weights per row.
	// Default 0.8, the paper's setting.
	Sparsity float64
	// LengthScale of the underlying RBF kernel. Default √n, matching
	// NonlinearConfig.
	LengthScale float64
}

// NewSparse constructs a sparse encoder for n features and dimension d.
func NewSparse(n, d int, seed uint64, cfg SparseConfig) (*Sparse, error) {
	if n <= 0 || d <= 0 {
		return nil, fmt.Errorf("encoding: non-positive encoder size %dx%d", n, d)
	}
	s := cfg.Sparsity
	if s == 0 {
		s = 0.8
	}
	if s < 0 || s >= 1 {
		return nil, fmt.Errorf("encoding: sparsity %g outside [0, 1)", s)
	}
	ls := cfg.LengthScale
	if ls == 0 {
		ls = math.Sqrt(float64(n))
	}
	w := int(math.Round((1 - s) * float64(n)))
	// Floor the window so small feature vectors keep enough cross-
	// feature mixing per dimension: a 75-feature node at 80% sparsity
	// would otherwise see only 15 features per row, losing the
	// interactions the non-linear encoder exists to capture.
	if w < minWindow {
		w = minWindow
	}
	if w > n {
		w = n
	}
	r := rng.New(seed)
	e := &Sparse{
		n:           n,
		d:           d,
		window:      w,
		sparsity:    s,
		lengthScale: ls,
		starts:      make([]int, d),
		weights:     make([][]float64, d),
		biases:      make([]float64, d),
	}
	// Scale up the surviving weights so that the dot-product variance
	// matches the dense encoder's: Var(B·F) is proportional to the
	// number of non-zero weights, so multiply by sqrt(n/w).
	scale := math.Sqrt(float64(n)/float64(w)) / ls
	for i := 0; i < d; i++ {
		e.starts[i] = r.Intn(n)
		row := make([]float64, w)
		for j := range row {
			row[j] = r.Norm() * scale
		}
		e.weights[i] = row
		e.biases[i] = r.Uniform(0, 2*math.Pi)
	}
	return e, nil
}

// Dim implements Encoder.
func (e *Sparse) Dim() int { return e.d }

// NumFeatures implements Encoder.
func (e *Sparse) NumFeatures() int { return e.n }

// EncodeFloat returns the pre-binarization encoding. The window wraps
// around the end of the feature vector, so every row reads exactly
// `window` consecutive (mod n) features, matching the sequential BRAM
// fetch of the hardware pipeline.
func (e *Sparse) EncodeFloat(features []float64) []float64 {
	checkFeatures(len(features), e.n)
	out := make([]float64, e.d)
	for i := 0; i < e.d; i++ {
		var dot float64
		start := e.starts[i]
		row := e.weights[i]
		for j, wgt := range row {
			idx := start + j
			if idx >= e.n {
				idx -= e.n
			}
			dot += wgt * features[idx]
		}
		out[i] = math.Cos(dot+e.biases[i]) * math.Sin(dot)
	}
	return out
}

// Encode implements Encoder.
func (e *Sparse) Encode(features []float64) hdc.Bipolar {
	return hdc.FromSigns(e.EncodeFloat(features))
}

// MACsPerEncode returns the multiply-accumulates per encoding:
// d windows of `window` weights — the (1−s)× saving over dense.
func (e *Sparse) MACsPerEncode() int64 {
	return int64(e.d) * int64(e.window)
}
