// Package rng provides the deterministic random-number substrate used by
// every stochastic component of EdgeHD: base-vector generation for the
// non-linear encoder, ternary projection matrices for hierarchical
// encoding, bipolar position hypervectors for compression, synthetic
// dataset generation, and failure injection in the network simulator.
//
// All randomness in the repository flows through this package so that a
// single integer seed reproduces an entire experiment bit-for-bit. The
// generator is a 64-bit PCG variant (splitmix64-seeded xoshiro256**),
// chosen for speed and statistical quality; it intentionally does not use
// math/rand's global state (per the style guides: no mutable globals, no
// init()).
package rng

import "math"

// Source is a deterministic pseudo-random source. It is not safe for
// concurrent use; give each goroutine its own seeded Source.
type Source struct {
	s0, s1, s2, s3 uint64

	// cached spare Gaussian value from the Box-Muller pair.
	gauss    float64
	hasGauss bool
}

// New returns a Source seeded from seed. Distinct seeds yield
// uncorrelated streams; the same seed always yields the same stream.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the source as if it had been created by New(seed).
func (r *Source) Reseed(seed uint64) {
	// splitmix64 expansion of the seed into four non-zero words.
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15 // xoshiro must not be seeded all-zero
	}
	r.gauss = 0
	r.hasGauss = false
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers control n so this is a programmer error.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a standard-normal variate via the Box-Muller transform.
// One spare value per pair is cached for the next call.
func (r *Source) Norm() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 { // log(0) guard
			break
		}
	}
	v = r.Float64()
	radius := math.Sqrt(-2 * math.Log(u))
	angle := 2 * math.Pi * v
	r.gauss = radius * math.Sin(angle)
	r.hasGauss = true
	return radius * math.Cos(angle)
}

// NormVec fills out with independent standard-normal variates and
// returns it. If out is nil a new slice of length n is allocated.
func (r *Source) NormVec(n int, out []float64) []float64 {
	if out == nil {
		out = make([]float64, n)
	}
	for i := range out[:n] {
		out[i] = r.Norm()
	}
	return out[:n]
}

// Bipolar returns a random ±1 value.
func (r *Source) Bipolar() int8 {
	if r.Uint64()&1 == 0 {
		return -1
	}
	return 1
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle applies an in-place Fisher-Yates shuffle using swap, matching
// math/rand.Shuffle's contract.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli reports true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	return r.Float64() < p
}
