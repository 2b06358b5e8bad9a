package hdc

import (
	"testing"

	"edgehd/internal/rng"
)

// TestAllocs pins the heap allocations per call of the per-sample
// kernels at D=4096. Each ceiling is today's measured count; a change
// that earns a lower count lowers the ceiling with it.
func TestAllocs(t *testing.T) {
	const d = 4096
	r := rng.New(1)
	a, b, pos := RandomBipolar(d, r), RandomBipolar(d, r), RandomBipolar(d, r)
	acc := NewAcc(d)
	acc.AddBipolar(a)
	va, vb := signs(a), signs(b)
	for _, tc := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		{"Bipolar.Hamming", 0, func() { _ = a.Hamming(b) }},
		{"Bipolar.Dot", 0, func() { _ = a.Dot(b) }},
		{"Acc.AddBipolar", 0, func() { acc.AddBipolar(b) }},
		{"Acc.SubBipolar", 0, func() { acc.SubBipolar(b) }},
		{"Acc.AddBound", 0, func() { acc.AddBound(pos, b) }},
		{"Acc.DotBipolar", 0, func() { _ = acc.DotBipolar(b) }},
		{"Dot", 0, func() { _ = Dot(va, vb) }},
		{"DotSigns", 0, func() { _ = DotSigns(va, b) }},
		{"ArgMax", 0, func() { _ = ArgMax(va) }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got > tc.ceiling {
			t.Errorf("%s: %v allocs per call, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
