package hdc

import (
	"math"
	"testing"

	"edgehd/internal/rng"
)

func TestDotAndNorm(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, -5, 6}
	if got := Dot(a, b); got != 12 {
		t.Fatalf("Dot = %v, want 12", got)
	}
	if got := AccFromInts([]int32{3, 4}).Norm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

func TestNormalizedAccUnitNorm(t *testing.T) {
	r := rng.New(1)
	a := NewAcc(300)
	for i := 0; i < 4; i++ {
		a.AddBipolar(RandomBipolar(300, r))
	}
	v := NormalizedAcc(a)
	if n := math.Sqrt(Dot(v, v)); math.Abs(n-1) > 1e-9 {
		t.Fatalf("NormalizedAcc norm = %v", n)
	}
}

func TestDotSignsMatchesExpansion(t *testing.T) {
	r := rng.New(2)
	v := r.NormVec(129, nil)
	q := RandomBipolar(129, r)
	want := Dot(v, signs(q))
	if got := DotSigns(v, q); math.Abs(got-want) > 1e-9 {
		t.Fatalf("DotSigns = %v, expanded = %v", got, want)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	s := Softmax(xs)
	var sum float64
	for _, p := range s {
		if p < 0 || p > 1 {
			t.Fatalf("softmax value out of [0,1]: %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax does not sum to 1: %v", sum)
	}
	// Monotone: larger input → larger probability.
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatal("softmax not monotone in its input")
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	s := Softmax([]float64{1000, 1001})
	if math.IsNaN(s[0]) || math.IsNaN(s[1]) {
		t.Fatal("softmax overflowed on large inputs")
	}
	if math.Abs(s[0]+s[1]-1) > 1e-9 {
		t.Fatalf("softmax sum = %v", s[0]+s[1])
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	if got := Softmax(nil); len(got) != 0 {
		t.Fatalf("Softmax(nil) length = %d", len(got))
	}
}

func TestArgMax(t *testing.T) {
	cases := []struct {
		in   []float64
		want int
	}{
		{nil, -1},
		{[]float64{5}, 0},
		{[]float64{1, 3, 2}, 1},
		{[]float64{2, 2, 2}, 0}, // first wins on ties
		{[]float64{-5, -1, -9}, 1},
	}
	for _, c := range cases {
		if got := ArgMax(c.in); got != c.want {
			t.Errorf("ArgMax(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}
