package encoding

import (
	"math"
	"testing"
	"testing/quick"

	"edgehd/internal/rng"
)

func randFeatures(r *rng.Source, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Norm()
	}
	return v
}

func TestNonlinearDeterministic(t *testing.T) {
	a := must(NewNonlinear(10, 256, 42, NonlinearConfig{}))
	b := must(NewNonlinear(10, 256, 42, NonlinearConfig{}))
	f := randFeatures(rng.New(1), 10)
	if !a.Encode(f).Equal(b.Encode(f)) {
		t.Fatal("same seed produced different encodings")
	}
}

func TestNonlinearSeedChangesEncoding(t *testing.T) {
	a := must(NewNonlinear(10, 256, 1, NonlinearConfig{}))
	b := must(NewNonlinear(10, 256, 2, NonlinearConfig{}))
	f := randFeatures(rng.New(1), 10)
	if a.Encode(f).Equal(b.Encode(f)) {
		t.Fatal("different seeds produced identical encodings")
	}
}

func TestNonlinearLocality(t *testing.T) {
	// The common-sense principle of §III: nearby points in the original
	// space must stay similar in hyperspace, distant points dissimilar.
	e := must(NewNonlinear(16, 2048, 7, NonlinearConfig{}))
	r := rng.New(3)
	x := randFeatures(r, 16)
	near := make([]float64, 16)
	far := make([]float64, 16)
	for i := range x {
		near[i] = x[i] + 0.05*r.Norm()
		far[i] = x[i] + 3*r.Norm()
	}
	hx, hn, hf := e.Encode(x), e.Encode(near), e.Encode(far)
	simNear, simFar := hx.Cosine(hn), hx.Cosine(hf)
	if simNear <= simFar+0.2 {
		t.Fatalf("locality violated: sim(near)=%v, sim(far)=%v", simNear, simFar)
	}
	if simNear < 0.5 {
		t.Fatalf("near point similarity too low: %v", simNear)
	}
}

func TestNonlinearDimAndFeatures(t *testing.T) {
	e := must(NewNonlinear(5, 100, 1, NonlinearConfig{}))
	if e.Dim() != 100 || e.NumFeatures() != 5 {
		t.Fatalf("Dim/NumFeatures = %d/%d", e.Dim(), e.NumFeatures())
	}
}

func TestNonlinearWrongFeatureCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched feature count did not panic")
		}
	}()
	must(NewNonlinear(5, 100, 1, NonlinearConfig{})).Encode(make([]float64, 6))
}

func TestRFFApproximatesGaussianKernel(t *testing.T) {
	// eq. (1): H_D(x)ᵀH_D(y) ≈ exp(−‖x−y‖²/(2ℓ²)).
	const n, d = 8, 8192
	e := must(NewRFF(n, d, 11, 1.5))
	r := rng.New(5)
	for trial := 0; trial < 10; trial++ {
		x := randFeatures(r, n)
		y := make([]float64, n)
		for i := range y {
			y[i] = x[i] + 0.4*r.Norm()
		}
		var approx float64
		zx, zy := e.Map(x), e.Map(y)
		for i := range zx {
			approx += zx[i] * zy[i]
		}
		exact := gaussianKernel(e, x, y)
		if math.Abs(approx-exact) > 0.06 {
			t.Fatalf("trial %d: RFF dot %v vs kernel %v", trial, approx, exact)
		}
	}
}

// gaussianKernel returns the exact RBF kernel exp(−‖x−y‖²/(2ℓ²)) that
// e's map approximates.
func gaussianKernel(e *RFF, x, y []float64) float64 {
	var d2 float64
	for i := range x {
		diff := x[i] - y[i]
		d2 += diff * diff
	}
	return math.Exp(-d2 / (2 * e.lengthScale * e.lengthScale))
}

func TestRFFSelfKernelIsOne(t *testing.T) {
	e := must(NewRFF(4, 2048, 3, 0))
	x := randFeatures(rng.New(9), 4)
	if k := gaussianKernel(e, x, x); k != 1 {
		t.Fatalf("self kernel = %v", k)
	}
	var self float64
	for _, v := range e.Map(x) {
		self += v * v
	}
	if math.Abs(self-1) > 0.05 {
		t.Fatalf("RFF self inner product = %v, want ≈ 1", self)
	}
}

func TestSparseMatchesDenseStatistics(t *testing.T) {
	// Sparse encoding should preserve the locality property despite
	// dropping 80% of the weights.
	e := must(NewSparse(32, 2048, 13, SparseConfig{Sparsity: 0.8}))
	r := rng.New(4)
	x := randFeatures(r, 32)
	near := make([]float64, 32)
	for i := range x {
		near[i] = x[i] + 0.05*r.Norm()
	}
	far := randFeatures(r, 32)
	hx := e.Encode(x)
	simNear, simFar := hx.Cosine(e.Encode(near)), hx.Cosine(e.Encode(far))
	if simNear <= simFar+0.2 {
		t.Fatalf("sparse locality violated: near=%v far=%v", simNear, simFar)
	}
}

func TestSparseWindowSize(t *testing.T) {
	e := must(NewSparse(500, 64, 1, SparseConfig{Sparsity: 0.8}))
	if e.window != 100 {
		t.Fatalf("window = %d, want 100", e.window)
	}
	if e.MACsPerEncode() != 64*100 {
		t.Fatalf("MACsPerEncode = %d", e.MACsPerEncode())
	}
	if e.sparsity != 0.8 {
		t.Fatalf("sparsity = %v", e.sparsity)
	}
	// Small feature counts hit the window floor instead.
	floored := must(NewSparse(100, 64, 1, SparseConfig{Sparsity: 0.8}))
	if floored.window != 32 {
		t.Fatalf("floored window = %d, want 32", floored.window)
	}
}

func TestSparseWindowAtLeastOne(t *testing.T) {
	e := must(NewSparse(2, 16, 1, SparseConfig{Sparsity: 0.9}))
	if e.window < 1 {
		t.Fatalf("window = %d", e.window)
	}
	e.Encode([]float64{1, 2}) // must not panic
}

func TestSparseMACSavings(t *testing.T) {
	// A dense encoding performs one length-500 dot product per output.
	const denseMACs = 512 * 500
	sparse := must(NewSparse(500, 512, 1, SparseConfig{Sparsity: 0.8}))
	if ratio := float64(denseMACs) / float64(sparse.MACsPerEncode()); math.Abs(ratio-5) > 0.01 {
		t.Fatalf("80%% sparsity should cut MACs 5×, got %v×", ratio)
	}
}

func TestLinearQuantize(t *testing.T) {
	e := must(NewLinear(4, 128, 1, LinearConfig{Levels: 4, Lo: 0, Hi: 4}))
	cases := []struct {
		v    float64
		want int
	}{{-1, 0}, {0, 0}, {0.5, 0}, {1.5, 1}, {2.5, 2}, {3.99, 3}, {4, 3}, {100, 3}}
	for _, c := range cases {
		if got := e.Quantize(c.v); got != c.want {
			t.Errorf("Quantize(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLinearLevelChainCorrelation(t *testing.T) {
	e := must(NewLinear(4, 4096, 2, LinearConfig{Levels: 8}))
	// Adjacent levels similar, extremes quasi-orthogonal.
	adj := e.levelHVs[3].Cosine(e.levelHVs[4])
	ext := e.levelHVs[0].Cosine(e.levelHVs[7])
	if adj < 0.7 {
		t.Fatalf("adjacent level similarity = %v, want > 0.7", adj)
	}
	if math.Abs(ext) > 0.25 {
		t.Fatalf("extreme level similarity = %v, want ≈ 0", ext)
	}
	// Similarity decreases monotonically with level distance from 0.
	prev := 1.0
	for l := 1; l < 8; l++ {
		s := e.levelHVs[0].Cosine(e.levelHVs[l])
		if s > prev+1e-9 {
			t.Fatalf("level similarity not monotone at level %d: %v > %v", l, s, prev)
		}
		prev = s
	}
}

func TestLinearEncodeDeterministic(t *testing.T) {
	a := must(NewLinear(6, 512, 9, LinearConfig{}))
	b := must(NewLinear(6, 512, 9, LinearConfig{}))
	f := randFeatures(rng.New(2), 6)
	if !a.Encode(f).Equal(b.Encode(f)) {
		t.Fatal("linear encoder is not deterministic")
	}
}

func TestLinearLocality(t *testing.T) {
	e := must(NewLinear(8, 2048, 5, LinearConfig{}))
	r := rng.New(6)
	x := randFeatures(r, 8)
	near := make([]float64, 8)
	for i := range x {
		near[i] = x[i] + 0.02
	}
	far := randFeatures(r, 8)
	hx := e.Encode(x)
	if simN, simF := hx.Cosine(e.Encode(near)), hx.Cosine(e.Encode(far)); simN <= simF {
		t.Fatalf("linear locality violated: near=%v far=%v", simN, simF)
	}
}

func TestImage2DPositionKernel(t *testing.T) {
	e := must(NewImage2D(16, 16, 4096, 21, 2))
	// Same position → similarity 1; neighbours high; distant ≈ 0.
	if s := e.PositionSimilarity(5, 5, 5, 5); math.Abs(s-1) > 1e-9 {
		t.Fatalf("self position similarity = %v", s)
	}
	nearSim := e.PositionSimilarity(5, 5, 6, 5)
	farSim := e.PositionSimilarity(0, 0, 15, 15)
	if nearSim < 0.6 {
		t.Fatalf("neighbour position similarity = %v, want > 0.6", nearSim)
	}
	if math.Abs(farSim) > 0.1 {
		t.Fatalf("distant position similarity = %v, want ≈ 0", farSim)
	}
	// It should track the Gaussian kernel of the scaled displacement.
	want := math.Exp(-0.5 * (1.0 / (2 * 2)) * 2) // ‖Δ‖²=2 at (1,1) offset, ℓ=2
	got := e.PositionSimilarity(4, 4, 5, 5)
	if math.Abs(got-want) > 0.08 {
		t.Fatalf("kernel mismatch: got %v want %v", got, want)
	}
}

func TestImage2DShiftSimilarity(t *testing.T) {
	// A one-pixel-shifted image should stay far more similar than a
	// random image — the spatial-structure preservation claim of §III-A.
	const w, h = 12, 12
	e := must(NewImage2D(w, h, 4096, 22, 2))
	r := rng.New(7)
	img := make([]float64, w*h)
	for y := 3; y < 9; y++ {
		for x := 3; x < 9; x++ {
			img[y*w+x] = 1
		}
	}
	shift := make([]float64, w*h)
	for y := 3; y < 9; y++ {
		for x := 4; x < 10; x++ {
			shift[y*w+x] = 1
		}
	}
	noise := make([]float64, w*h)
	for i := range noise {
		if r.Bernoulli(0.25) {
			noise[i] = 1
		}
	}
	base := e.Encode(img)
	if sShift, sNoise := base.Cosine(e.Encode(shift)), base.Cosine(e.Encode(noise)); sShift <= sNoise+0.15 {
		t.Fatalf("shifted image not recognized: shift=%v noise=%v", sShift, sNoise)
	}
}

func TestImage2DSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("image size mismatch did not panic")
		}
	}()
	must(NewImage2D(4, 4, 64, 1, 0)).Encode(make([]float64, 15))
}

// Property: every encoder produces hypervectors of its declared
// dimension for arbitrary inputs.
func TestQuickEncodersProduceDeclaredDim(t *testing.T) {
	nl := must(NewNonlinear(6, 130, 1, NonlinearConfig{}))
	sp := must(NewSparse(6, 130, 2, SparseConfig{}))
	ln := must(NewLinear(6, 130, 3, LinearConfig{}))
	f := func(a, b, c, d, e, g int8) bool {
		feat := []float64{float64(a) / 16, float64(b) / 16, float64(c) / 16,
			float64(d) / 16, float64(e) / 16, float64(g) / 16}
		return nl.Encode(feat).Dim() == 130 &&
			sp.Encode(feat).Dim() == 130 &&
			ln.Encode(feat).Dim() == 130
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: encoding is a pure function — the same input always yields
// the same hypervector.
func TestQuickEncodePure(t *testing.T) {
	e := must(NewNonlinear(4, 256, 17, NonlinearConfig{}))
	f := func(a, b, c, d int8) bool {
		feat := []float64{float64(a), float64(b), float64(c), float64(d)}
		return e.Encode(feat).Equal(e.Encode(feat))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// must unwraps a constructor result; tests treat construction failure
// as fatal.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
