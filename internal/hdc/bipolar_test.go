package hdc

import (
	"math"
	"testing"
	"testing/quick"

	"edgehd/internal/rng"
)

func TestNewBipolarAllNegative(t *testing.T) {
	b := NewBipolar(100)
	for i := 0; i < 100; i++ {
		if b.Get(i) != -1 {
			t.Fatalf("component %d = %d, want -1", i, b.Get(i))
		}
	}
}

func TestSetGet(t *testing.T) {
	b := NewBipolar(130) // crosses a word boundary, non-multiple of 64
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.Set(i, true)
		if b.Get(i) != 1 {
			t.Fatalf("Set(%d, true) not observed", i)
		}
		b.Set(i, false)
		if b.Get(i) != -1 {
			t.Fatalf("Set(%d, false) not observed", i)
		}
	}
}

func TestFromSigns(t *testing.T) {
	v := []float64{-0.5, 0.3, 0, -2, 7}
	b := FromSigns(v)
	want := []int8{-1, 1, 1, -1, 1} // 0 binarizes to +1
	for i, w := range want {
		if b.Get(i) != w {
			t.Fatalf("component %d = %d, want %d", i, b.Get(i), w)
		}
	}
}

func TestBindSelfInverse(t *testing.T) {
	r := rng.New(1)
	x := RandomBipolar(257, r)
	p := RandomBipolar(257, r)
	if !x.Bind(p).Bind(p).Equal(x) {
		t.Fatal("Bind is not self-inverse")
	}
}

func TestBindCommutative(t *testing.T) {
	r := rng.New(2)
	a := RandomBipolar(100, r)
	b := RandomBipolar(100, r)
	if !a.Bind(b).Equal(b.Bind(a)) {
		t.Fatal("Bind is not commutative")
	}
}

func TestBindWithSelfIsIdentityVector(t *testing.T) {
	r := rng.New(3)
	a := RandomBipolar(100, r)
	id := a.Bind(a)
	for i := 0; i < 100; i++ {
		if id.Get(i) != 1 {
			t.Fatalf("a*a component %d = %d, want +1", i, id.Get(i))
		}
	}
}

func TestDotHammingRelation(t *testing.T) {
	r := rng.New(4)
	a := RandomBipolar(333, r)
	b := RandomBipolar(333, r)
	if got, want := a.Dot(b), 333-2*a.Hamming(b); got != want {
		t.Fatalf("Dot = %d, want D-2H = %d", got, want)
	}
}

func TestDotMatchesExpandedSigns(t *testing.T) {
	r := rng.New(5)
	a := RandomBipolar(129, r)
	b := RandomBipolar(129, r)
	want := 0.0
	sa, sb := signs(a), signs(b)
	for i := range sa {
		want += sa[i] * sb[i]
	}
	if got := float64(a.Dot(b)); got != want {
		t.Fatalf("packed Dot = %v, expanded = %v", got, want)
	}
}

func TestCosineSelf(t *testing.T) {
	r := rng.New(6)
	a := RandomBipolar(512, r)
	if c := a.Cosine(a); c != 1 {
		t.Fatalf("self-cosine = %v, want 1", c)
	}
}

func TestRandomBipolarQuasiOrthogonal(t *testing.T) {
	r := rng.New(7)
	// Expected |cos| for random ±1 vectors ~ sqrt(2/(π·d)).
	d := 4096
	prev := RandomBipolar(d, r)
	mean := 0.0
	for i := 1; i < 50; i++ {
		cur := RandomBipolar(d, r)
		mean += math.Abs(prev.Cosine(cur)) / 49
		prev = cur
	}
	expected := math.Sqrt(2 / (math.Pi * float64(d)))
	if mean > 4*expected {
		t.Fatalf("random hypervectors not quasi-orthogonal: mean |cos| = %v, expected ≈ %v", mean, expected)
	}
}

func TestConcatAndSlice(t *testing.T) {
	r := rng.New(8)
	a := RandomBipolar(70, r)
	b := RandomBipolar(130, r)
	c := ConcatBipolar(a, b)
	if c.Dim() != 200 {
		t.Fatalf("concat dim = %d, want 200", c.Dim())
	}
	if !slice(c, 0, 70).Equal(a) {
		t.Fatal("first slice does not match input a")
	}
	if !slice(c, 70, 200).Equal(b) {
		t.Fatal("second slice does not match input b")
	}
}

func TestConcatEmpty(t *testing.T) {
	if got := ConcatBipolar().Dim(); got != 0 {
		t.Fatalf("empty concat dim = %d", got)
	}
}

func TestFlipBitsRate(t *testing.T) {
	r := rng.New(9)
	a := RandomBipolar(10000, r)
	flipped := a.FlipBits(0.2, r)
	h := a.Hamming(flipped)
	if h < 1700 || h > 2300 {
		t.Fatalf("FlipBits(0.2) flipped %d/10000 bits", h)
	}
}

func TestFlipBitsZeroAndOne(t *testing.T) {
	r := rng.New(10)
	a := RandomBipolar(500, r)
	if !a.FlipBits(0, r).Equal(a) {
		t.Fatal("FlipBits(0) changed the vector")
	}
	if h := a.Hamming(a.FlipBits(1, r)); h != 500 {
		t.Fatalf("FlipBits(1) flipped %d/500 bits", h)
	}
}

func TestWireBytes(t *testing.T) {
	cases := []struct{ d, want int }{{0, 0}, {1, 1}, {8, 1}, {9, 2}, {4000, 500}}
	for _, c := range cases {
		if got := NewBipolar(c.d).WireBytes(); got != c.want {
			t.Errorf("WireBytes(dim=%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestWordsRoundTrip(t *testing.T) {
	r := rng.New(11)
	a := RandomBipolar(100, r)
	b, err := BipolarFromWords(100, a.Words())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("Words round trip lost data")
	}
	if _, err := BipolarFromWords(100, make([]uint64, 5)); err == nil {
		t.Fatal("BipolarFromWords accepted mismatched word count")
	}
}

func TestDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched dims did not panic")
		}
	}()
	NewBipolar(10).Dot(NewBipolar(11))
}

// Property: Bind then unbind recovers the original for arbitrary seeds
// and dimensions.
func TestQuickBindRoundTrip(t *testing.T) {
	f := func(seed uint64, dRaw uint16) bool {
		d := int(dRaw%512) + 1
		r := rng.New(seed)
		x := RandomBipolar(d, r)
		p := RandomBipolar(d, r)
		return x.Bind(p).Bind(p).Equal(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Hamming is a metric bounded by the dimension and symmetric.
func TestQuickHammingMetric(t *testing.T) {
	f := func(seed uint64, dRaw uint16) bool {
		d := int(dRaw%512) + 1
		r := rng.New(seed)
		a := RandomBipolar(d, r)
		b := RandomBipolar(d, r)
		h := a.Hamming(b)
		return h >= 0 && h <= d && h == b.Hamming(a) && a.Hamming(a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: concatenation preserves every component.
func TestQuickConcatPreserves(t *testing.T) {
	f := func(seed uint64, d1Raw, d2Raw uint8) bool {
		d1, d2 := int(d1Raw)+1, int(d2Raw)+1
		r := rng.New(seed)
		a := RandomBipolar(d1, r)
		b := RandomBipolar(d2, r)
		c := ConcatBipolar(a, b)
		for i := 0; i < d1; i++ {
			if c.Get(i) != a.Get(i) {
				return false
			}
		}
		for i := 0; i < d2; i++ {
			if c.Get(d1+i) != b.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSignsInt8MatchesGet(t *testing.T) {
	r := rng.New(77)
	b := RandomBipolar(131, r)
	signs := b.SignsInt8()
	if len(signs) != 131 {
		t.Fatalf("SignsInt8 length = %d", len(signs))
	}
	for i, s := range signs {
		if s != b.Get(i) {
			t.Fatalf("SignsInt8[%d] = %d, Get = %d", i, s, b.Get(i))
		}
	}
}

func TestEraseBurstsCoverage(t *testing.T) {
	r := rng.New(79)
	b := RandomBipolar(4096, r)
	// Bursts of 32 covering 50%: expect ~25% of bits flipped.
	erased := b.EraseBursts(0.5, 32, r)
	h := b.Hamming(erased)
	if h < 700 || h > 1400 {
		t.Fatalf("EraseBursts(0.5, 32) flipped %d/4096 bits, want ≈ 1024", h)
	}
	// Zero rate leaves the vector intact.
	if !b.EraseBursts(0, 32, r).Equal(b) {
		t.Fatal("EraseBursts(0) changed the vector")
	}
	// Oversized bursts are clamped rather than panicking.
	small := RandomBipolar(8, r)
	small.EraseBursts(0.9, 1000, r)
}

// signs expands b into a ±1 float vector, the dense oracle for the
// packed kernels.
func signs(b Bipolar) []float64 {
	out := make([]float64, b.Dim())
	for i := range out {
		out[i] = float64(b.Get(i))
	}
	return out
}

// slice returns components [lo, hi) of b as a new hypervector.
func slice(b Bipolar, lo, hi int) Bipolar {
	out := NewBipolar(hi - lo)
	for i := lo; i < hi; i++ {
		out.Set(i-lo, b.Get(i) > 0)
	}
	return out
}
