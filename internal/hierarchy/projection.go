// Package hierarchy implements EdgeHD's hierarchical learning layer
// (§IV): dimension allocation across the IoT tree, the holographic
// hierarchical encoding that aggregates child hypervectors
// (concatenation followed by a random ternary projection, Fig 4),
// distributed training with batch hypervectors (§IV-B), confidence-
// routed hierarchical inference with position-hypervector compression
// (§IV-C), and residual-based online learning through the tree (§IV-D).
package hierarchy

import (
	"fmt"

	"edgehd/internal/hdc"
	"edgehd/internal/rng"
)

// Projection is the random ternary map of the hierarchical encoder
// (Fig 4b): it takes the concatenation of child hypervectors and mixes
// it into the parent's dimensionality, giving the result a holographic
// distribution — every input dimension influences many output
// dimensions, so losing any subset of components degrades all
// information a little instead of some information completely (§VI-F).
//
// Rows are stored sparsely: each output dimension sums fanIn randomly
// chosen input components with random signs. This matches the paper's
// {−1, 0, +1} projection matrix (the zeros dominate) while keeping the
// cost of one projection at outDim·fanIn additions.
type Projection struct {
	inDim, outDim int
	fanIn         int
	// idx[o] and sgn[o] list the input positions and signs feeding
	// output dimension o.
	idx [][]int32
	sgn [][]int8
}

// NewProjection builds a projection from inDim to outDim where each
// output mixes fanIn inputs (clamped to inDim). All structure derives
// from seed. A non-positive dimension or fan-in (a malformed config)
// returns an error instead of crashing the node.
func NewProjection(inDim, outDim, fanIn int, seed uint64) (*Projection, error) {
	if inDim <= 0 || outDim <= 0 || fanIn <= 0 {
		return nil, fmt.Errorf("hierarchy: invalid projection %d→%d fanIn %d", inDim, outDim, fanIn)
	}
	if fanIn > inDim {
		fanIn = inDim
	}
	r := rng.New(seed)
	p := &Projection{
		inDim:  inDim,
		outDim: outDim,
		fanIn:  fanIn,
		idx:    make([][]int32, outDim),
		sgn:    make([][]int8, outDim),
	}
	for o := 0; o < outDim; o++ {
		idx := make([]int32, fanIn)
		sgn := make([]int8, fanIn)
		for k := 0; k < fanIn; k++ {
			idx[k] = int32(r.Intn(inDim))
			sgn[k] = r.Bipolar()
		}
		p.idx[o] = idx
		p.sgn[o] = sgn
	}
	return p, nil
}

// dimError reports a projection dimension mismatch. It lives outside
// the projection kernels so their hot paths stay free of fmt calls.
func (p *Projection) dimError(got int) error {
	return fmt.Errorf("hierarchy: projecting dim %d through %d→%d", got, p.inDim, p.outDim)
}

// FanIn returns the number of inputs mixed per output dimension.
func (p *Projection) FanIn() int { return p.fanIn }

// Bipolar projects a concatenated bipolar hypervector and binarizes the
// result with sign(), the query/batch path of the hierarchical encoder.
// A dimension mismatch (an internal invariant violation) returns an
// error instead of panicking.
func (p *Projection) Bipolar(in hdc.Bipolar) (hdc.Bipolar, error) {
	if in.Dim() != p.inDim {
		return hdc.Bipolar{}, p.dimError(in.Dim())
	}
	signs := in.SignsInt8()
	out := hdc.NewBipolar(p.outDim)
	for o := 0; o < p.outDim; o++ {
		var sum int32
		idx := p.idx[o]
		sgn := p.sgn[o]
		for k, ix := range idx {
			sum += int32(sgn[k]) * int32(signs[ix])
		}
		out.Set(o, sum >= 0)
	}
	return out, nil
}

// Acc projects a concatenated integer hypervector without binarizing,
// preserving bundling linearity: Acc(a+b) == Acc(a)+Acc(b). Class
// hypervectors and residuals travel through this path so their
// magnitudes survive aggregation. A dimension mismatch returns an
// error instead of panicking.
func (p *Projection) Acc(in hdc.Acc) (hdc.Acc, error) {
	if in.Dim() != p.inDim {
		return hdc.Acc{}, p.dimError(in.Dim())
	}
	out := make([]int32, p.outDim)
	for o := 0; o < p.outDim; o++ {
		var sum int32
		idx := p.idx[o]
		sgn := p.sgn[o]
		for k, ix := range idx {
			sum += int32(sgn[k]) * in.Get(int(ix))
		}
		out[o] = sum
	}
	return hdc.AccFromInts(out), nil
}

// Ops returns the simple-operation count of one projection, for the
// device cost models.
func (p *Projection) Ops() int64 {
	return int64(p.outDim) * int64(p.fanIn)
}
