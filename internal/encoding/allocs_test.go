package encoding

import (
	"testing"

	"edgehd/internal/rng"
)

// TestAllocs pins the heap allocations per call of the leaf encoders at
// D=4096: one, the returned hypervector. Each ceiling is today's
// measured count; a change that earns a lower count lowers it.
func TestAllocs(t *testing.T) {
	const n, d = 64, 4096
	f := randFeatures(rng.New(1), n)
	sparse := must(NewSparse(n, d, 3, SparseConfig{Sparsity: 0.8}))
	nonlinear := must(NewNonlinear(n, d, 3, NonlinearConfig{}))
	for _, tc := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		{"Sparse.EncodeFloat", 1, func() { _ = sparse.EncodeFloat(f) }},
		{"Nonlinear.EncodeFloat", 1, func() { _ = nonlinear.EncodeFloat(f) }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got > tc.ceiling {
			t.Errorf("%s: %v allocs per call, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
