package core

import (
	"testing"

	"edgehd/internal/hdc"
	"edgehd/internal/rng"
)

// TestAllocs pins the heap allocations per associative search at
// D=4096: the similarity vector, plus the softmax scratch for
// Confidence. Each ceiling is today's measured count; a change that
// earns a lower count lowers it.
func TestAllocs(t *testing.T) {
	const d = 4096
	r := rng.New(1)
	model := func(k int) *Model {
		m := must(NewModel(d, k))
		for c := 0; c < k; c++ {
			m.Add(c, hdc.RandomBipolar(d, r))
		}
		return m
	}
	m2, m26 := model(2), model(26)
	q := hdc.RandomBipolar(d, r)
	for _, tc := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		{"Similarities", 1, func() { _ = m2.Similarities(q) }},
		{"Classify", 1, func() { _, _ = m2.Classify(q) }},
		{"Predict", 1, func() { _ = m2.Predict(q) }},
		{"Confidence k=2", 3, func() { _, _ = m2.Confidence(q) }},
		{"Confidence k=26", 3, func() { _, _ = m26.Confidence(q) }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got > tc.ceiling {
			t.Errorf("%s: %v allocs per call, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
