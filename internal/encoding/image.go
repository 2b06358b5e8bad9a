package encoding

import (
	"fmt"
	"math"

	"edgehd/internal/hdc"
	"edgehd/internal/rng"
)

// Image2D is the fractional-power 2D image encoder of §III-A. Two base
// hypervectors B_x = e^{iθ_x/w_x} and B_y = e^{iθ_y/w_y} (θ ~ N(0,1)^D)
// identify positions: pixel (X, Y) gets the ID phasor B_x^X ⊙ B_y^Y,
// whose phase is X·θ_x/w_x + Y·θ_y/w_y. Raising a phasor to a power
// multiplies its phase, so nearby pixels get correlated IDs — the
// similarity of two position IDs converges to the Gaussian kernel
// k((X₁−X₂)/w) as D → ∞, which preserves spatial structure. The image
// encoding bundles value-weighted pixel phasors,
//
//	V_F = Σ_{X,Y} P_{X,Y} · B_x^X ⊙ B_y^Y,
//
// and binarizes the real part.
type Image2D struct {
	w, h        int
	d           int
	thetaX      []float64 // per-dimension base phase, x axis
	thetaY      []float64 // per-dimension base phase, y axis
	lengthScale float64
}

// NewImage2D constructs an encoder for w×h images with hypervector
// dimension d. lengthScale is the kernel width in pixels (0 selects a
// default of 2, giving IDs correlated across ~2-pixel neighbourhoods).
func NewImage2D(w, h, d int, seed uint64, lengthScale float64) (*Image2D, error) {
	if w <= 0 || h <= 0 || d <= 0 {
		return nil, fmt.Errorf("encoding: non-positive encoder size %dx%dx%d", w, h, d)
	}
	if lengthScale == 0 {
		lengthScale = 2
	}
	r := rng.New(seed)
	e := &Image2D{
		w:           w,
		h:           h,
		d:           d,
		thetaX:      make([]float64, d),
		thetaY:      make([]float64, d),
		lengthScale: lengthScale,
	}
	for i := 0; i < d; i++ {
		e.thetaX[i] = r.Norm() / lengthScale
		e.thetaY[i] = r.Norm() / lengthScale
	}
	return e, nil
}

// Dim returns the hypervector dimensionality.
func (e *Image2D) Dim() int { return e.d }

// NumFeatures returns the flattened pixel count w·h, making Image2D a
// full Encoder so image pipelines ride the same EncodeBatch path as the
// vector encoders.
func (e *Image2D) NumFeatures() int { return e.w * e.h }

// PositionSimilarity returns the empirical cosine similarity between the
// position IDs of (x1, y1) and (x2, y2): the real part of the mean
// conjugate product of the two phasors, which approximates the Gaussian
// kernel of the scaled displacement.
func (e *Image2D) PositionSimilarity(x1, y1, x2, y2 int) float64 {
	var sum float64
	dx, dy := float64(x1-x2), float64(y1-y2)
	for i := 0; i < e.d; i++ {
		sum += math.Cos(dx*e.thetaX[i] + dy*e.thetaY[i])
	}
	return sum / float64(e.d)
}

// EncodeFloat maps a row-major w×h pixel image to the real part of the
// bundled phasor hypervector.
func (e *Image2D) EncodeFloat(pixels []float64) []float64 {
	if len(pixels) != e.w*e.h {
		// Encoders are wired to fixed-size sensors; a mismatched frame is
		// a programming error on the Encode hot path, not a runtime
		// condition an error return could recover.
		panic("encoding: image size mismatch") //hdlint:allow panic-policy sanctioned hot-path guard
	}
	out := make([]float64, e.d)
	for i := 0; i < e.d; i++ {
		var re float64
		tx, ty := e.thetaX[i], e.thetaY[i]
		for y := 0; y < e.h; y++ {
			base := float64(y) * ty
			row := pixels[y*e.w:]
			for x := 0; x < e.w; x++ {
				p := row[x]
				if p == 0 {
					continue
				}
				re += p * math.Cos(float64(x)*tx+base)
			}
		}
		out[i] = re
	}
	return out
}

// Encode maps an image to a bipolar hypervector.
func (e *Image2D) Encode(pixels []float64) hdc.Bipolar {
	return hdc.FromSigns(e.EncodeFloat(pixels))
}
