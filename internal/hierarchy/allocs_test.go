package hierarchy

import (
	"testing"

	"edgehd/internal/hdc"
	"edgehd/internal/rng"
	"edgehd/internal/telemetry"
)

// TestAllocs pins the heap allocations per call of the projections
// (4096→4096, fan-in 64) and of routed inference on the PDP tree at
// D=4096 with a Registry attached, as every binary runs it. Infer pins
// Workers: 1 because wider pools allocate per worker, so the count
// would follow the host's core count. Each ceiling is today's measured
// count; a change that earns a lower count lowers it.
func TestAllocs(t *testing.T) {
	const d = 4096
	r := rng.New(1)
	p := mustProjection(t, d, d, 64, 2)
	in := hdc.RandomBipolar(d, r)
	acc := hdc.NewAcc(d)
	acc.AddBipolar(in)
	acc.AddBipolar(hdc.RandomBipolar(d, r))

	sys, data := buildPDP(t, Config{TotalDim: d, Seed: 21, RetrainEpochs: 2, Workers: 1, Telemetry: telemetry.New()}, 300, 100)
	if _, err := sys.Train(data.TrainX, data.TrainY); err != nil {
		t.Fatal(err)
	}
	// The first test row that resolves at its entry node, and the first
	// that climbs both levels to the central node.
	row := map[int]int{}
	for i, x := range data.TestX {
		res, err := sys.Infer(x, i%5)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := row[res.Escalations]; !ok {
			row[res.Escalations] = i
		}
	}
	var res InferResult
	infer := func(i int) func() {
		return func() {
			var err error
			if res, err = sys.Infer(data.TestX[i], i%5); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, tc := range []struct {
		name        string
		ceiling     float64
		escalations int // -1: not an Infer row
		f           func()
	}{
		{"Projection.Bipolar", 2, -1, func() { _, _ = p.Bipolar(in) }},
		{"Projection.Acc", 2, -1, func() { _, _ = p.Acc(acc) }},
		{"Infer local", 7, 0, infer(row[0])},
		{"Infer to central", 77, 2, infer(row[2])},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got > tc.ceiling {
			t.Errorf("%s: %v allocs per call, ceiling %v", tc.name, got, tc.ceiling)
		}
		if tc.escalations >= 0 && res.Escalations != tc.escalations {
			t.Errorf("%s: %d escalations, want %d", tc.name, res.Escalations, tc.escalations)
		}
	}
}
