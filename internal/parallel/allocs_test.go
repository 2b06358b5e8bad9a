package parallel

import (
	"testing"

	"edgehd/internal/hdc"
	"edgehd/internal/rng"
)

// TestAllocs pins the heap allocations of the ordered slot reduction:
// four D=4096 partials on a one-worker pool. Each ceiling is today's
// measured count; a change that earns a lower count lowers it.
func TestAllocs(t *testing.T) {
	r := rng.New(1)
	parts := make([]hdc.Acc, 4)
	for i := range parts {
		parts[i] = hdc.NewAcc(4096)
		parts[i].AddBipolar(hdc.RandomBipolar(4096, r))
	}
	p := New(1)
	for _, tc := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		{"SumAccs", 8, func() { _ = p.SumAccs("sum", parts) }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got > tc.ceiling {
			t.Errorf("%s: %v allocs per call, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
