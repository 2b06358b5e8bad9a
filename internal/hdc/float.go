package hdc

import "math"

// Float helpers operate on dense float64 hypervectors — the encoder's
// output before binarization and the pre-normalized class hypervectors
// used by the associative search (§V-B pre-normalization optimization).

// Dot returns the dot product of two equal-length float vectors.
func Dot(a, b []float64) float64 {
	mustSameDim(len(a), len(b))
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// NormalizedAcc converts an accumulator to a unit-norm float vector,
// the §V-B trick that turns cosine similarity into a plain dot product
// at inference time.
func NormalizedAcc(a Acc) []float64 {
	out := make([]float64, a.Dim())
	n := a.Norm()
	if n == 0 {
		return out
	}
	for i := range out {
		out[i] = float64(a.Get(i)) / n
	}
	return out
}

// DotSigns computes Σ v_i·q_i for a float vector v and a bipolar query q
// by adding or subtracting components according to the query bits — the
// multiplication-free associative search of §V-B applied to
// pre-normalized class hypervectors.
func DotSigns(v []float64, q Bipolar) float64 {
	mustSameDim(len(v), q.Dim())
	var s float64
	for w, word := range q.words {
		base := w * 64
		n := 64
		if base+n > len(v) {
			n = len(v) - base
		}
		for i := 0; i < n; i++ {
			if word&(1<<uint(i)) != 0 {
				s += v[base+i]
			} else {
				s -= v[base+i]
			}
		}
	}
	return s
}

// Softmax returns the softmax of xs. The hierarchical inference router
// (§IV-C) feeds it the normalized cosine similarities to all class
// hypervectors and thresholds the winning probability as the confidence
// level.
func Softmax(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	maxV := xs[0]
	for _, x := range xs[1:] {
		if x > maxV {
			maxV = x
		}
	}
	var sum float64
	for i, x := range xs {
		e := math.Exp(x - maxV)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// ArgMax returns the index of the largest element (first on ties), or −1
// for an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs[1:] {
		if x > xs[best] {
			best = i + 1
		}
	}
	return best
}
