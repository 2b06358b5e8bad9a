package hdc

import (
	"fmt"
	"math/bits"

	"edgehd/internal/rng"
)

// Bipolar is a hypervector with components in {−1, +1}, packed one bit
// per dimension (bit set ⇔ component is +1). It is the representation
// used for everything that crosses a network link: encoded queries,
// position hypervectors, and binarized models. The zero value is an
// empty (dimension-0) hypervector.
type Bipolar struct {
	dim   int
	words []uint64
}

// NewBipolar returns an all −1 (no bits set) hypervector of dimension d.
func NewBipolar(d int) Bipolar {
	if d < 0 {
		panic("hdc: negative dimension")
	}
	return Bipolar{dim: d, words: make([]uint64, (d+63)/64)}
}

// RandomBipolar returns a hypervector whose components are i.i.d. ±1
// drawn from r. Random bipolar hypervectors are quasi-orthogonal in high
// dimension, the property underlying the compression scheme of §IV-C.
func RandomBipolar(d int, r *rng.Source) Bipolar {
	b := NewBipolar(d)
	for i := range b.words {
		b.words[i] = r.Uint64()
	}
	b.maskTail()
	return b
}

// FromSigns builds a bipolar hypervector from the signs of v: component
// i is +1 when v[i] >= 0 and −1 otherwise. This is the sign() binarizer
// applied after non-linear encoding (§III-A).
func FromSigns(v []float64) Bipolar {
	b := NewBipolar(len(v))
	for i, x := range v {
		if x >= 0 {
			b.words[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return b
}

// Dim returns the dimensionality of the hypervector.
func (b Bipolar) Dim() int { return b.dim }

// Get returns component i as ±1.
func (b Bipolar) Get(i int) int8 {
	if b.words[i/64]&(1<<(uint(i)%64)) != 0 {
		return 1
	}
	return -1
}

// Set assigns component i to +1 when positive is true and −1 otherwise.
func (b Bipolar) Set(i int, positive bool) {
	mask := uint64(1) << (uint(i) % 64)
	if positive {
		b.words[i/64] |= mask
	} else {
		b.words[i/64] &^= mask
	}
}

// Clone returns a deep copy.
func (b Bipolar) Clone() Bipolar {
	c := Bipolar{dim: b.dim, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// Equal reports whether two hypervectors have identical dimension and
// components.
func (b Bipolar) Equal(o Bipolar) bool {
	if b.dim != o.dim {
		return false
	}
	for i, w := range b.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Bind returns the element-wise product b*o. In the packed domain the ±1
// product is XNOR of the sign bits; binding is self-inverse:
// Bind(Bind(x, p), p) == x.
func (b Bipolar) Bind(o Bipolar) Bipolar {
	mustSameDim(b.dim, o.dim)
	out := Bipolar{dim: b.dim, words: make([]uint64, len(b.words))}
	for i := range b.words {
		out.words[i] = ^(b.words[i] ^ o.words[i])
	}
	out.maskTail()
	return out
}

// Hamming returns the number of dimensions on which b and o differ.
func (b Bipolar) Hamming(o Bipolar) int {
	mustSameDim(b.dim, o.dim)
	h := 0
	for i := range b.words {
		h += bits.OnesCount64(b.words[i] ^ o.words[i])
	}
	return h
}

// Dot returns the integer dot product Σ b_i·o_i = D − 2·Hamming(b, o).
func (b Bipolar) Dot(o Bipolar) int {
	return b.dim - 2*b.Hamming(o)
}

// Cosine returns the cosine similarity Dot/D ∈ [−1, 1], since every
// bipolar hypervector has L2 norm √D.
func (b Bipolar) Cosine(o Bipolar) float64 {
	if b.dim == 0 {
		return 0
	}
	return float64(b.Dot(o)) / float64(b.dim)
}

// ConcatBipolar concatenates the given hypervectors in order, the first
// stage of hierarchical encoding (Fig 4a).
func ConcatBipolar(vs ...Bipolar) Bipolar {
	total := 0
	for _, v := range vs {
		total += v.dim
	}
	out := NewBipolar(total)
	off := 0
	for _, v := range vs {
		for i := 0; i < v.dim; i++ {
			if v.words[i/64]&(1<<(uint(i)%64)) != 0 {
				out.words[(off+i)/64] |= 1 << (uint(off+i) % 64)
			}
		}
		off += v.dim
	}
	return out
}

// FlipBits flips each component independently with probability p using
// r, modelling the random loss/corruption of dimension values that §VI-F
// injects to measure robustness. It returns a corrupted copy.
func (b Bipolar) FlipBits(p float64, r *rng.Source) Bipolar {
	out := b.Clone()
	for i := 0; i < b.dim; i++ {
		if r.Bernoulli(p) {
			out.words[i/64] ^= 1 << (uint(i) % 64)
		}
	}
	return out
}

// EraseBursts models packet loss: contiguous runs of `burst` components
// are erased (coin-flipped) at random offsets until about fraction p of
// the vector has been hit. Real links lose whole packets, not isolated
// bits; burst erasure is what separates the holographic hierarchical
// encoding from plain concatenation in §VI-F — a lost burst of a
// concatenated hypervector wipes out one child's coordinates entirely,
// while a projected hypervector spreads every child over all bursts.
func (b Bipolar) EraseBursts(p float64, burst int, r *rng.Source) Bipolar {
	if burst < 1 {
		burst = 1
	}
	if burst > b.dim {
		burst = b.dim
	}
	out := b.Clone()
	target := int(p * float64(b.dim))
	for lost := 0; lost < target; lost += burst {
		start := r.Intn(b.dim)
		for k := 0; k < burst; k++ {
			i := start + k
			if i >= b.dim {
				i -= b.dim
			}
			if r.Bernoulli(0.5) {
				out.words[i/64] ^= 1 << (uint(i) % 64)
			}
		}
	}
	return out
}

// SignsInt8 expands the packed representation into a ±1 int8 slice.
// Random-access consumers (the hierarchical projection) expand once and
// index the slice instead of paying per-bit extraction.
func (b Bipolar) SignsInt8() []int8 {
	out := make([]int8, b.dim)
	for w, word := range b.words {
		base := w * 64
		n := 64
		if base+n > b.dim {
			n = b.dim - base
		}
		for i := 0; i < n; i++ {
			if word&(1<<uint(i)) != 0 {
				out[base+i] = 1
			} else {
				out[base+i] = -1
			}
		}
	}
	return out
}

// WireBytes returns the number of bytes needed to transmit the
// hypervector: one bit per dimension, as the paper's communication
// accounting assumes for binary hypervectors.
func (b Bipolar) WireBytes() int {
	return (b.dim + 7) / 8
}

// Words exposes the packed words for serialization. The returned slice
// is a copy.
func (b Bipolar) Words() []uint64 {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return w
}

// BipolarFromWords reconstructs a hypervector of dimension d from packed
// words produced by Words. It returns an error when the word count does
// not match the dimension.
func BipolarFromWords(d int, words []uint64) (Bipolar, error) {
	if len(words) != (d+63)/64 {
		return Bipolar{}, fmt.Errorf("hdc: %d words cannot hold dimension %d", len(words), d)
	}
	b := Bipolar{dim: d, words: make([]uint64, len(words))}
	copy(b.words, words)
	b.maskTail()
	return b, nil
}

// maskTail clears the unused high bits of the last word so that
// popcount-based operations never see stray bits.
func (b Bipolar) maskTail() {
	if b.dim%64 != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << (uint(b.dim) % 64)) - 1
	}
}

func mustSameDim(a, b int) {
	if a != b {
		panic(fmt.Sprintf("hdc: dimension mismatch %d vs %d", a, b))
	}
}
