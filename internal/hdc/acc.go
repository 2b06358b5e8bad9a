package hdc

import "math"

// Acc is an integer accumulator hypervector: the result of bundling
// (element-wise adding) many bipolar hypervectors. Class hypervectors,
// batch hypervectors and the residual hypervectors of online learning
// (§IV-D) are all Acc values. The zero value is an empty hypervector.
type Acc struct {
	v []int32
}

// NewAcc returns a zero accumulator of dimension d.
func NewAcc(d int) Acc {
	if d < 0 {
		panic("hdc: negative dimension")
	}
	return Acc{v: make([]int32, d)}
}

// AccFromInts wraps a copy of v as an accumulator.
func AccFromInts(v []int32) Acc {
	c := make([]int32, len(v))
	copy(c, v)
	return Acc{v: c}
}

// Dim returns the dimensionality.
func (a Acc) Dim() int { return len(a.v) }

// Get returns component i.
func (a Acc) Get(i int) int32 { return a.v[i] }

// Clone returns a deep copy.
func (a Acc) Clone() Acc {
	return AccFromInts(a.v)
}

// IsZero reports whether every component is zero (e.g. a residual
// hypervector that has received no feedback yet).
func (a Acc) IsZero() bool {
	for _, x := range a.v {
		if x != 0 {
			return false
		}
	}
	return true
}

// AddBipolar bundles b into the accumulator: a += b. This is the initial
// training step C^i = Σ_j H^i_j of §III-B.
func (a Acc) AddBipolar(b Bipolar) {
	mustSameDim(len(a.v), b.dim)
	for w, word := range b.words {
		base := w * 64
		n := 64
		if base+n > len(a.v) {
			n = len(a.v) - base
		}
		for i := 0; i < n; i++ {
			if word&(1<<uint(i)) != 0 {
				a.v[base+i]++
			} else {
				a.v[base+i]--
			}
		}
	}
}

// SubBipolar removes b from the accumulator: a −= b. Retraining uses it
// to update the mispredicted class (C^wrong = C^wrong − H).
func (a Acc) SubBipolar(b Bipolar) {
	mustSameDim(len(a.v), b.dim)
	for w, word := range b.words {
		base := w * 64
		n := 64
		if base+n > len(a.v) {
			n = len(a.v) - base
		}
		for i := 0; i < n; i++ {
			if word&(1<<uint(i)) != 0 {
				a.v[base+i]--
			} else {
				a.v[base+i]++
			}
		}
	}
}

// AddBound bundles the bound product pos*b into the accumulator:
// a += pos ⊙ b. This is one term of the compression sum of eq. (3),
// H = Σ_i P_i * H_i.
func (a Acc) AddBound(pos, b Bipolar) {
	mustSameDim(len(a.v), pos.dim)
	mustSameDim(len(a.v), b.dim)
	for w := range pos.words {
		// XNOR gives the sign of the ±1 product.
		word := ^(pos.words[w] ^ b.words[w])
		base := w * 64
		n := 64
		if base+n > len(a.v) {
			n = len(a.v) - base
		}
		for i := 0; i < n; i++ {
			if word&(1<<uint(i)) != 0 {
				a.v[base+i]++
			} else {
				a.v[base+i]--
			}
		}
	}
}

// UnbindSign recovers sign(a ⊙ pos): the decompression step of eq. (4),
// H_i ≈ sign(H * P_i). Ties (component 0) binarize to +1, matching
// FromSigns.
func (a Acc) UnbindSign(pos Bipolar) Bipolar {
	mustSameDim(len(a.v), pos.dim)
	out := NewBipolar(len(a.v))
	for i, x := range a.v {
		prod := int32(pos.Get(i)) * x
		if prod >= 0 {
			out.words[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return out
}

// AddAcc adds o into a component-wise. Model aggregation between
// same-dimension siblings and residual folding use this.
func (a Acc) AddAcc(o Acc) {
	mustSameDim(len(a.v), len(o.v))
	for i, x := range o.v {
		a.v[i] += x
	}
}

// SubAcc subtracts o from a component-wise: the "update model with the
// residual hypervectors" step of §IV-D (Fig 5b, step 2).
func (a Acc) SubAcc(o Acc) {
	mustSameDim(len(a.v), len(o.v))
	for i, x := range o.v {
		a.v[i] -= x
	}
}

// Reset zeroes the accumulator in place (residual hypervectors are
// cleared after each propagation).
func (a Acc) Reset() {
	for i := range a.v {
		a.v[i] = 0
	}
}

// Sign binarizes the accumulator into a bipolar hypervector; components
// ≥ 0 map to +1.
func (a Acc) Sign() Bipolar {
	out := NewBipolar(len(a.v))
	for i, x := range a.v {
		if x >= 0 {
			out.words[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return out
}

// Norm returns the L2 norm.
func (a Acc) Norm() float64 {
	var s float64
	for _, x := range a.v {
		f := float64(x)
		s += f * f
	}
	return math.Sqrt(s)
}

// DotBipolar computes Σ a_i·q_i for a bipolar query q without any
// multiplications: each component is added or subtracted depending on
// the query bit (the "negation block" of the FPGA design, §V-B).
func (a Acc) DotBipolar(q Bipolar) int64 {
	mustSameDim(len(a.v), q.dim)
	var dot int64
	for w, word := range q.words {
		base := w * 64
		n := 64
		if base+n > len(a.v) {
			n = len(a.v) - base
		}
		for i := 0; i < n; i++ {
			if word&(1<<uint(i)) != 0 {
				dot += int64(a.v[base+i])
			} else {
				dot -= int64(a.v[base+i])
			}
		}
	}
	return dot
}

// DotAcc computes the integer dot product with another accumulator.
func (a Acc) DotAcc(o Acc) int64 {
	mustSameDim(len(a.v), len(o.v))
	var dot int64
	for i, x := range a.v {
		dot += int64(x) * int64(o.v[i])
	}
	return dot
}

// Ints exposes a copy of the raw components for serialization.
func (a Acc) Ints() []int32 {
	return append([]int32(nil), a.v...)
}

// ConcatAcc concatenates accumulators in order; parents use it when
// aggregating integer-valued residual hypervectors from children before
// projecting (§IV-D step 3 combined with §IV-A).
func ConcatAcc(vs ...Acc) Acc {
	total := 0
	for _, v := range vs {
		total += len(v.v)
	}
	out := make([]int32, 0, total)
	for _, v := range vs {
		out = append(out, v.v...)
	}
	return Acc{v: out}
}

// WireBytes returns the transfer size of the accumulator: 32 bits per
// dimension, the width the paper assumes for non-binarized hypervectors.
func (a Acc) WireBytes() int {
	return 4 * len(a.v)
}
