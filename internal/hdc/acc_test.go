package hdc

import (
	"math"
	"testing"
	"testing/quick"

	"edgehd/internal/rng"
)

func TestAddSubBipolarInverse(t *testing.T) {
	r := rng.New(1)
	a := NewAcc(200)
	b := RandomBipolar(200, r)
	a.AddBipolar(b)
	a.SubBipolar(b)
	if !a.IsZero() {
		t.Fatal("Add then Sub of the same hypervector did not cancel")
	}
}

func TestAddBipolarValues(t *testing.T) {
	b := NewBipolar(4)
	b.Set(0, true)
	b.Set(2, true)
	a := NewAcc(4)
	a.AddBipolar(b)
	a.AddBipolar(b)
	want := []int32{2, -2, 2, -2}
	for i, w := range want {
		if a.Get(i) != w {
			t.Fatalf("component %d = %d, want %d", i, a.Get(i), w)
		}
	}
}

func TestSignRecoversMajority(t *testing.T) {
	r := rng.New(2)
	// Bundle 9 noisy copies of a prototype; sign() should recover it.
	proto := RandomBipolar(1024, r)
	a := NewAcc(1024)
	for i := 0; i < 9; i++ {
		a.AddBipolar(proto.FlipBits(0.1, r))
	}
	rec := a.Sign()
	if cos := proto.Cosine(rec); cos < 0.9 {
		t.Fatalf("bundled sign recovery cosine = %v, want > 0.9", cos)
	}
}

func TestDotBipolarMatchesNaive(t *testing.T) {
	r := rng.New(3)
	a := NewAcc(129)
	for i := 0; i < 5; i++ {
		a.AddBipolar(RandomBipolar(129, r))
	}
	q := RandomBipolar(129, r)
	var want int64
	for i := 0; i < 129; i++ {
		want += int64(a.Get(i)) * int64(q.Get(i))
	}
	if got := a.DotBipolar(q); got != want {
		t.Fatalf("DotBipolar = %d, naive = %d", got, want)
	}
}

func TestAddSubAcc(t *testing.T) {
	a := AccFromInts([]int32{1, 2, 3})
	b := AccFromInts([]int32{10, 20, 30})
	a.AddAcc(b)
	if a.Get(1) != 22 {
		t.Fatalf("AddAcc wrong: %v", a.Ints())
	}
	a.SubAcc(b)
	a.SubAcc(AccFromInts([]int32{1, 2, 3}))
	if !a.IsZero() {
		t.Fatal("Add/Sub sequence did not return to zero")
	}
}

func TestReset(t *testing.T) {
	a := AccFromInts([]int32{1, -2, 3})
	a.Reset()
	if !a.IsZero() {
		t.Fatal("Reset did not zero the accumulator")
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	// eq. (3)/(4): bind m hypervectors to random positions, sum, then
	// recover each by unbinding. Recovered vectors should be much more
	// similar to the originals than chance.
	r := rng.New(5)
	const d, m = 4096, 10
	orig := make([]Bipolar, m)
	pos := make([]Bipolar, m)
	sum := NewAcc(d)
	for i := 0; i < m; i++ {
		orig[i] = RandomBipolar(d, r)
		pos[i] = RandomBipolar(d, r)
		sum.AddBound(pos[i], orig[i])
	}
	for i := 0; i < m; i++ {
		rec := sum.UnbindSign(pos[i])
		if cos := orig[i].Cosine(rec); cos < 0.15 {
			t.Fatalf("compression recovery %d cosine = %v, want > 0.15", i, cos)
		}
	}
}

func TestCompressionNoiseGrowsWithM(t *testing.T) {
	// More hypervectors in one compressed bundle ⇒ lower recovered
	// similarity (§IV-C "Compressing more hypervectors increases the
	// amount of noise").
	r := rng.New(6)
	const d = 2048
	recovered := func(m int) float64 {
		orig := make([]Bipolar, m)
		pos := make([]Bipolar, m)
		sum := NewAcc(d)
		for i := 0; i < m; i++ {
			orig[i] = RandomBipolar(d, r)
			pos[i] = RandomBipolar(d, r)
			sum.AddBound(pos[i], orig[i])
		}
		total := 0.0
		for i := 0; i < m; i++ {
			total += orig[i].Cosine(sum.UnbindSign(pos[i]))
		}
		return total / float64(m)
	}
	small, large := recovered(4), recovered(64)
	if small <= large {
		t.Fatalf("recovered similarity should shrink with m: m=4 → %v, m=64 → %v", small, large)
	}
}

func TestUnbindSignExactForSingle(t *testing.T) {
	r := rng.New(7)
	const d = 300
	h := RandomBipolar(d, r)
	p := RandomBipolar(d, r)
	sum := NewAcc(d)
	sum.AddBound(p, h)
	if !sum.UnbindSign(p).Equal(h) {
		t.Fatal("single-element compression should decompress exactly")
	}
}

func TestConcatAcc(t *testing.T) {
	a := AccFromInts([]int32{1, 2})
	b := AccFromInts([]int32{3})
	c := ConcatAcc(a, b)
	if c.Dim() != 3 || c.Get(0) != 1 || c.Get(2) != 3 {
		t.Fatalf("ConcatAcc wrong: %v", c.Ints())
	}
}

func TestAccWireBytes(t *testing.T) {
	if got := NewAcc(1000).WireBytes(); got != 4000 {
		t.Fatalf("Acc WireBytes = %d, want 4000", got)
	}
}

func TestAccCloneIndependent(t *testing.T) {
	a := AccFromInts([]int32{1, 2, 3})
	c := a.Clone()
	c.AddAcc(a)
	if a.Get(0) != 1 {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestNormValue(t *testing.T) {
	a := AccFromInts([]int32{3, 4})
	if got := a.Norm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

// Property: bundling k identical hypervectors then signing recovers the
// hypervector exactly.
func TestQuickBundleIdenticalRecovers(t *testing.T) {
	f := func(seed uint64, kRaw, dRaw uint8) bool {
		k := int(kRaw%9) + 1
		d := int(dRaw)%200 + 1
		r := rng.New(seed)
		h := RandomBipolar(d, r)
		a := NewAcc(d)
		for i := 0; i < k; i++ {
			a.AddBipolar(h)
		}
		return a.Sign().Equal(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: DotBipolar(q) == DotAcc of the ±1 expansion of q.
func TestQuickDotBipolarConsistent(t *testing.T) {
	f := func(seed uint64, dRaw uint8) bool {
		d := int(dRaw%200) + 1
		r := rng.New(seed)
		a := NewAcc(d)
		a.AddBipolar(RandomBipolar(d, r))
		a.AddBipolar(RandomBipolar(d, r))
		q := RandomBipolar(d, r)
		expand := make([]int32, d)
		for i := range expand {
			expand[i] = int32(q.Get(i))
		}
		return a.DotBipolar(q) == a.DotAcc(AccFromInts(expand))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
