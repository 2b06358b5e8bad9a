package hdc

import "testing"

// bipolarFromBytes derives a deterministic ±1 hypervector of dimension
// dim from arbitrary fuzz bytes: component i is the parity of bit i of
// the (cyclically extended) input.
func bipolarFromBytes(dim int, data []byte) Bipolar {
	b := NewBipolar(dim)
	if len(data) == 0 {
		return b
	}
	for i := 0; i < dim; i++ {
		byteIdx := (i / 8) % len(data)
		bit := data[byteIdx] >> (i % 8) & 1
		b.Set(i, bit == 1)
	}
	return b
}

// FuzzBipolarOps drives the core hypervector algebra with adversarial
// inputs and checks its invariants: every component stays in {-1, +1},
// bind is self-inverse, Hamming/Dot stay within their analytic bounds,
// concatenation preserves its inputs, and bundling via an accumulator signs
// back to a valid bipolar vector.
func FuzzBipolarOps(f *testing.F) {
	f.Add(uint16(64), []byte{0xAB, 0xCD}, []byte{0x12})
	f.Add(uint16(1), []byte{0x01}, []byte{0xFF})
	f.Add(uint16(129), []byte{0}, []byte{0x55, 0xAA})
	f.Add(uint16(1000), []byte("edgehd"), []byte("fuzz"))

	f.Fuzz(func(t *testing.T, rawDim uint16, da, db []byte) {
		dim := int(rawDim)%2048 + 1 // keep cases small and non-empty
		a := bipolarFromBytes(dim, da)
		b := bipolarFromBytes(dim, db)

		inRange := func(name string, v Bipolar) {
			t.Helper()
			if v.Dim() != dim {
				t.Fatalf("%s: dim = %d, want %d", name, v.Dim(), dim)
			}
			for i := 0; i < v.Dim(); i++ {
				if g := v.Get(i); g != 1 && g != -1 {
					t.Fatalf("%s: component %d = %d, want ±1", name, i, g)
				}
			}
		}
		inRange("a", a)
		inRange("b", b)

		bound := a.Bind(b)
		inRange("bind", bound)
		if !bound.Bind(b).Equal(a) {
			t.Fatal("bind is not self-inverse: (a⊗b)⊗b ≠ a")
		}

		h := a.Hamming(b)
		if h < 0 || h > dim {
			t.Fatalf("Hamming = %d outside [0, %d]", h, dim)
		}
		if d := a.Dot(b); d != dim-2*h {
			t.Fatalf("Dot = %d, want dim-2·Hamming = %d", d, dim-2*h)
		}
		if c := a.Cosine(b); c < -1.0000001 || c > 1.0000001 {
			t.Fatalf("Cosine = %v outside [-1, 1]", c)
		}

		cat := ConcatBipolar(a, b)
		if cat.Dim() != 2*dim {
			t.Fatalf("Concat dim = %d, want %d", cat.Dim(), 2*dim)
		}
		if !slice(cat, 0, dim).Equal(a) || !slice(cat, dim, 2*dim).Equal(b) {
			t.Fatal("Concat does not preserve its inputs")
		}

		acc := NewAcc(dim)
		acc.AddBipolar(a)
		acc.AddBipolar(b)
		acc.AddBipolar(a)
		inRange("bundle sign", acc.Sign())
		for i := 0; i < dim; i++ {
			want := a.Get(i) + b.Get(i) + a.Get(i)
			if got := acc.Get(i); got != int32(want) {
				t.Fatalf("bundle component %d = %d, want %d", i, got, want)
			}
		}
	})
}
