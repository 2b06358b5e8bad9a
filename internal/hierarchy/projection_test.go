package hierarchy

import (
	"math"
	"testing"
	"testing/quick"

	"edgehd/internal/hdc"
	"edgehd/internal/rng"
)

// mustProjection builds a projection or fails the test.
func mustProjection(t *testing.T, inDim, outDim, fanIn int, seed uint64) *Projection {
	t.Helper()
	p, err := NewProjection(inDim, outDim, fanIn, seed)
	if err != nil {
		t.Fatalf("NewProjection(%d,%d,%d,%d): %v", inDim, outDim, fanIn, seed, err)
	}
	return p
}

// mustBipolar projects through the bipolar path or fails the test.
func mustBipolar(t *testing.T, p *Projection, in hdc.Bipolar) hdc.Bipolar {
	t.Helper()
	out, err := p.Bipolar(in)
	if err != nil {
		t.Fatalf("Projection.Bipolar: %v", err)
	}
	return out
}

// mustAcc projects through the integer path or fails the test.
func mustAcc(t *testing.T, p *Projection, in hdc.Acc) hdc.Acc {
	t.Helper()
	out, err := p.Acc(in)
	if err != nil {
		t.Fatalf("Projection.Acc: %v", err)
	}
	return out
}

func TestProjectionDims(t *testing.T) {
	p := mustProjection(t, 100, 60, 16, 1)
	if p.inDim != 100 || p.outDim != 60 || p.FanIn() != 16 {
		t.Fatalf("projection shape %d→%d fanIn %d", p.inDim, p.outDim, p.FanIn())
	}
	if p.Ops() != 60*16 {
		t.Fatalf("Ops = %d", p.Ops())
	}
}

func TestProjectionFanInClamped(t *testing.T) {
	p := mustProjection(t, 8, 16, 64, 1)
	if p.FanIn() != 8 {
		t.Fatalf("fanIn not clamped: %d", p.FanIn())
	}
}

func TestProjectionDeterministic(t *testing.T) {
	r := rng.New(1)
	in := hdc.RandomBipolar(128, r)
	a := mustBipolar(t, mustProjection(t, 128, 64, 16, 7), in)
	b := mustBipolar(t, mustProjection(t, 128, 64, 16, 7), in)
	if !a.Equal(b) {
		t.Fatal("same-seed projections differ")
	}
	c := mustBipolar(t, mustProjection(t, 128, 64, 16, 8), in)
	if a.Equal(c) {
		t.Fatal("different-seed projections identical")
	}
}

func TestProjectionPreservesSimilarity(t *testing.T) {
	// Similar inputs must stay similar after projection, dissimilar
	// inputs dissimilar — the property that lets parents classify
	// projected queries.
	r := rng.New(2)
	p := mustProjection(t, 1024, 512, 64, 3)
	x := hdc.RandomBipolar(1024, r)
	near := x.FlipBits(0.05, r)
	far := hdc.RandomBipolar(1024, r)
	px := mustBipolar(t, p, x)
	simNear := px.Cosine(mustBipolar(t, p, near))
	simFar := px.Cosine(mustBipolar(t, p, far))
	if simNear < simFar+0.3 {
		t.Fatalf("projection destroyed similarity structure: near=%v far=%v", simNear, simFar)
	}
}

func TestProjectionAccLinearity(t *testing.T) {
	// Acc path must be linear: proj(a+b) == proj(a)+proj(b), the
	// property that makes bundled class hypervectors aggregate correctly.
	r := rng.New(3)
	p := mustProjection(t, 96, 48, 12, 4)
	a := hdc.NewAcc(96)
	b := hdc.NewAcc(96)
	for i := 0; i < 4; i++ {
		a.AddBipolar(hdc.RandomBipolar(96, r))
		b.AddBipolar(hdc.RandomBipolar(96, r))
	}
	sum := a.Clone()
	sum.AddAcc(b)
	lhs := mustAcc(t, p, sum)
	rhs := mustAcc(t, p, a)
	rhs.AddAcc(mustAcc(t, p, b))
	for i := 0; i < 48; i++ {
		if lhs.Get(i) != rhs.Get(i) {
			t.Fatalf("Acc projection not linear at dim %d", i)
		}
	}
}

func TestProjectionAccMatchesBipolarOnSigns(t *testing.T) {
	// For a ±1 input, sign(Acc-projection) must equal the Bipolar path.
	r := rng.New(4)
	p := mustProjection(t, 80, 40, 10, 5)
	x := hdc.RandomBipolar(80, r)
	expand := make([]int32, 80)
	for i := range expand {
		expand[i] = int32(x.Get(i))
	}
	viaAcc := mustAcc(t, p, hdc.AccFromInts(expand)).Sign()
	viaBip := mustBipolar(t, p, x)
	if !viaAcc.Equal(viaBip) {
		t.Fatal("Acc and Bipolar projection paths disagree")
	}
}

func TestProjectionDimMismatchErrors(t *testing.T) {
	p := mustProjection(t, 10, 5, 4, 1)
	if _, err := p.Bipolar(hdc.NewBipolar(11)); err == nil {
		t.Fatal("Bipolar accepted wrong input dimension")
	}
	if _, err := p.Acc(hdc.NewAcc(9)); err == nil {
		t.Fatal("Acc accepted wrong input dimension")
	}
}

func TestNewProjectionRejectsMalformedShape(t *testing.T) {
	for _, bad := range [][3]int{{0, 5, 4}, {10, 0, 4}, {10, 5, 0}, {-1, 5, 4}} {
		if _, err := NewProjection(bad[0], bad[1], bad[2], 1); err == nil {
			t.Errorf("NewProjection(%v) accepted malformed shape", bad)
		}
	}
}

func TestProjectionHolographicSpread(t *testing.T) {
	// Holographic distribution: every input dimension should influence
	// at least one output (with high probability at this fan-in), and no
	// output should depend on a single input only when fanIn > 1.
	p := mustProjection(t, 64, 256, 32, 9)
	influenced := make([]bool, 64)
	for o := 0; o < 256; o++ {
		for _, ix := range p.idx[o] {
			influenced[ix] = true
		}
	}
	missing := 0
	for _, ok := range influenced {
		if !ok {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d/64 input dimensions influence no output — not holographic", missing)
	}
}

func TestCompressedWireBytes(t *testing.T) {
	// m=25 → values in [−25,25] → 6 bits/dim.
	if got := CompressedWireBytes(4000, 25); got != (4000*6+7)/8 {
		t.Fatalf("CompressedWireBytes = %d", got)
	}
	// m=1 → 2 bits (values in {−1,0,1}... [−1,1] → ceil(log2 3) = 2).
	if got := CompressedWireBytes(8, 1); got != 2 {
		t.Fatalf("CompressedWireBytes(8,1) = %d", got)
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	r := rng.New(5)
	queries := make([]hdc.Bipolar, 10)
	for i := range queries {
		queries[i] = hdc.RandomBipolar(2048, r)
	}
	sum, pos := Compress(queries, r)
	for i, q := range queries {
		rec := Decompress(sum, pos, i)
		if cos := q.Cosine(rec); cos < 0.15 {
			t.Fatalf("query %d recovered with cosine %v", i, cos)
		}
	}
}

func TestCompressEmpty(t *testing.T) {
	sum, pos := Compress(nil, rng.New(1))
	if sum.Dim() != 0 || pos != nil {
		t.Fatal("empty compression should be empty")
	}
}

// Property: the compression saving over raw Acc transfer grows with m.
func TestQuickCompressionSavings(t *testing.T) {
	f := func(mRaw uint8) bool {
		m := int(mRaw)%30 + 2
		compressed := CompressedWireBytes(1000, m)
		raw := m * hdc.NewBipolar(1000).WireBytes()
		// Compressed must be smaller than shipping a 32-bit Acc.
		acc := hdc.NewAcc(1000).WireBytes()
		_ = raw
		return compressed < acc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCompressionNoiseGrowth(t *testing.T) {
	// The §IV-C trade-off: larger m means lower recovered similarity.
	r := rng.New(6)
	avgRecovery := func(m int) float64 {
		queries := make([]hdc.Bipolar, m)
		for i := range queries {
			queries[i] = hdc.RandomBipolar(1024, r)
		}
		sum, pos := Compress(queries, r)
		total := 0.0
		for i, q := range queries {
			total += q.Cosine(Decompress(sum, pos, i))
		}
		return total / float64(m)
	}
	small, large := avgRecovery(5), avgRecovery(50)
	if small <= large {
		t.Fatalf("recovery should degrade with m: m=5→%v, m=50→%v", small, large)
	}
	if math.IsNaN(small) || math.IsNaN(large) {
		t.Fatal("NaN recovery")
	}
}
