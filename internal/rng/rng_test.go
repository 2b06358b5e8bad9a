package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical 64-bit values in 100 draws", same)
	}
}

func TestReseedResets(t *testing.T) {
	r := New(7)
	first := make([]uint64, 10)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("Reseed did not reset stream at %d: got %d want %d", i, got, first[i])
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(12)
	for i := 0; i < 1000; i++ {
		u := r.Uniform(-3, 5)
		if u < -3 || u >= 5 {
			t.Fatalf("Uniform out of range: %v", u)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(13)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	// Roughly uniform: each bucket expected 10000, allow ±10%.
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn bucket %d has skewed count %d", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(21)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Gaussian mean too far from 0: %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Gaussian variance too far from 1: %v", variance)
	}
}

func TestNormVec(t *testing.T) {
	r := New(22)
	v := r.NormVec(64, nil)
	if len(v) != 64 {
		t.Fatalf("NormVec length = %d, want 64", len(v))
	}
	buf := make([]float64, 128)
	w := r.NormVec(32, buf)
	if len(w) != 32 {
		t.Fatalf("NormVec with buffer length = %d, want 32", len(w))
	}
}

func TestBipolarBalance(t *testing.T) {
	r := New(31)
	pos := 0
	const n = 100000
	for i := 0; i < n; i++ {
		switch r.Bipolar() {
		case 1:
			pos++
		case -1:
		default:
			t.Fatal("Bipolar returned a non ±1 value")
		}
	}
	if pos < n*45/100 || pos > n*55/100 {
		t.Fatalf("Bipolar unbalanced: %d/%d positive", pos, n)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(41)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length = %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) is not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(42)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("Shuffle changed elements: sum %d -> %d", sum, got)
	}
}

func TestBernoulliProbability(t *testing.T) {
	r := New(51)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if hits < n*27/100 || hits > n*33/100 {
		t.Fatalf("Bernoulli(0.3) hit rate %d/%d out of tolerance", hits, n)
	}
}

// Property: Intn(n) is always within [0, n) for any positive n.
func TestQuickIntnInRange(t *testing.T) {
	r := New(61)
	f := func(n uint16, _ uint8) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: identical seeds produce identical Gaussian streams.
func TestQuickSeedDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 16; i++ {
			if a.Norm() != b.Norm() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Norm()
	}
	_ = sink
}
