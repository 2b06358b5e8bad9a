package encoding

import (
	"fmt"

	"edgehd/internal/hdc"
	"edgehd/internal/rng"
)

// Linear is the baseline ID-level encoder of the prior HD classifier
// that Fig 7 compares against ([36], "which uses a linear encoding
// method"). Each feature f_i gets a random ID hypervector; its value is
// quantized into one of Q levels, each level mapped to a level
// hypervector. Level hypervectors form a correlated chain: L_0 is
// random, and each subsequent level flips a fresh batch of D/(2(Q−1))
// positions, so L_0 and L_{Q−1} end up quasi-orthogonal while adjacent
// levels stay similar. The sample encoding bundles ID⊙Level bindings:
//
//	H = sign( Σ_i ID_i ⊙ L(q(f_i)) )
//
// Because the value enters only through the quantized level, the map is
// linear in the feature-similarity sense — the weakness EdgeHD's
// non-linear encoder removes (worth ~4.7% accuracy in the paper).
type Linear struct {
	n, d     int
	levels   int
	lo, hi   float64 // quantization range
	ids      []hdc.Bipolar
	levelHVs []hdc.Bipolar
}

var _ Encoder = (*Linear)(nil)

// LinearConfig parameterizes the baseline encoder.
type LinearConfig struct {
	// Levels Q of value quantization. Default 16.
	Levels int
	// Lo, Hi bound the expected feature range; values are clamped.
	// Defaults −3, +3 (z-scored features).
	Lo, Hi float64
}

// NewLinear constructs a baseline linear encoder.
func NewLinear(n, d int, seed uint64, cfg LinearConfig) (*Linear, error) {
	if n <= 0 || d <= 0 {
		return nil, fmt.Errorf("encoding: non-positive encoder size %dx%d", n, d)
	}
	q := cfg.Levels
	if q == 0 {
		q = 16
	}
	if q < 2 {
		return nil, fmt.Errorf("encoding: need at least 2 quantization levels, got %d", q)
	}
	lo, hi := cfg.Lo, cfg.Hi
	if lo == 0 && hi == 0 {
		lo, hi = -3, 3
	}
	if hi <= lo {
		return nil, fmt.Errorf("encoding: invalid quantization range [%g, %g]", lo, hi)
	}
	r := rng.New(seed)
	e := &Linear{
		n:        n,
		d:        d,
		levels:   q,
		lo:       lo,
		hi:       hi,
		ids:      make([]hdc.Bipolar, n),
		levelHVs: make([]hdc.Bipolar, q),
	}
	for i := range e.ids {
		e.ids[i] = hdc.RandomBipolar(d, r)
	}
	// Correlated level chain: flip disjoint batches of positions so the
	// Hamming distance grows linearly with the level gap.
	e.levelHVs[0] = hdc.RandomBipolar(d, r)
	perm := r.Perm(d)
	flipPerStep := d / (2 * (q - 1))
	if flipPerStep < 1 {
		flipPerStep = 1
	}
	pos := 0
	for l := 1; l < q; l++ {
		next := e.levelHVs[l-1].Clone()
		for k := 0; k < flipPerStep; k++ {
			idx := perm[pos%d]
			pos++
			next.Set(idx, next.Get(idx) == -1) // flip
		}
		e.levelHVs[l] = next
	}
	return e, nil
}

// Dim implements Encoder.
func (e *Linear) Dim() int { return e.d }

// NumFeatures implements Encoder.
func (e *Linear) NumFeatures() int { return e.n }

// Quantize maps a raw value to its level index, clamping to the range.
func (e *Linear) Quantize(v float64) int {
	if v <= e.lo {
		return 0
	}
	if v >= e.hi {
		return e.levels - 1
	}
	l := int(float64(e.levels) * (v - e.lo) / (e.hi - e.lo))
	if l >= e.levels {
		l = e.levels - 1
	}
	return l
}

// Encode implements Encoder.
func (e *Linear) Encode(features []float64) hdc.Bipolar {
	checkFeatures(len(features), e.n)
	acc := hdc.NewAcc(e.d)
	for i, f := range features {
		acc.AddBipolar(e.ids[i].Bind(e.levelHVs[e.Quantize(f)]))
	}
	return acc.Sign()
}
