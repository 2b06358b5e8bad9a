package device

import (
	"math"
	"testing"
)

func TestFPGAPowerCalibration(t *testing.T) {
	f := FPGA()
	// §VI-D: centralized FPGA at D=4000 draws ≈ 9.8 W.
	if p := f.Power(4000); math.Abs(p-9.8) > 0.1 {
		t.Fatalf("FPGA power at D=4000 = %v W, want ≈ 9.8", p)
	}
	// A hierarchical node at ~75 dims draws ≈ 0.28 W.
	if p := f.Power(75); math.Abs(p-0.28) > 0.03 {
		t.Fatalf("FPGA power at D=75 = %v W, want ≈ 0.28", p)
	}
}

func TestGPUFasterButLessEfficientThanFPGA(t *testing.T) {
	// The paper: HD-FPGA is slower than HD-GPU but ≈3× more energy
	// efficient at centralized dimensionality.
	w := Work{MACs: 1e9, Ops: 1e9, ActiveDims: 4000}
	fpga := FPGA().Cost(w)
	gpu := GPU().Cost(w)
	if gpu.Seconds >= fpga.Seconds {
		t.Fatalf("GPU (%v s) should be faster than FPGA (%v s)", gpu.Seconds, fpga.Seconds)
	}
	ratio := gpu.Joules / fpga.Joules
	if ratio < 2 || ratio > 5 {
		t.Fatalf("FPGA energy advantage over GPU = %.2f×, want ≈ 3×", ratio)
	}
}

func TestCostZeroWork(t *testing.T) {
	c := FPGA().Cost(Work{})
	if c.Seconds != 0 || c.Joules != 0 {
		t.Fatalf("zero work cost = %+v", c)
	}
}

func TestCostScalesLinearly(t *testing.T) {
	p := GPU()
	small := p.Cost(Work{MACs: 1e6, ActiveDims: 100})
	big := p.Cost(Work{MACs: 2e6, ActiveDims: 100})
	if math.Abs(big.Seconds-2*small.Seconds) > 1e-15 {
		t.Fatalf("latency not linear: %v vs %v", small.Seconds, big.Seconds)
	}
	if math.Abs(big.Joules-2*small.Joules) > 1e-12 {
		t.Fatalf("energy not linear: %v vs %v", small.Joules, big.Joules)
	}
}

func TestCostAdd(t *testing.T) {
	var c Cost
	c.Add(Cost{Seconds: 1, Joules: 2})
	c.Add(Cost{Seconds: 3, Joules: 4})
	if c.Seconds != 4 || c.Joules != 6 {
		t.Fatalf("Add = %+v", c)
	}
}

func TestCostMaxSeconds(t *testing.T) {
	var c Cost
	c.MaxSeconds(Cost{Seconds: 1, Joules: 2})
	c.MaxSeconds(Cost{Seconds: 0.5, Joules: 3})
	if c.Seconds != 1 {
		t.Fatalf("parallel latency = %v, want max 1", c.Seconds)
	}
	if c.Joules != 5 {
		t.Fatalf("parallel energy = %v, want sum 5", c.Joules)
	}
}

func TestNegativeWorkIsFree(t *testing.T) {
	p := FPGA()
	if s := p.MACSeconds(-5); s != 0 {
		t.Fatalf("negative MACs cost %v", s)
	}
	if s := p.OpSeconds(-5); s != 0 {
		t.Fatalf("negative ops cost %v", s)
	}
}

func TestHierarchicalFPGAEnergyWin(t *testing.T) {
	// The core §VI-D claim in miniature: the same total op count spread
	// over many low-dimension nodes costs less energy than one
	// high-dimension centralized FPGA, because power scales with lane
	// count while the work is the same.
	f := FPGA()
	central := f.Cost(Work{Ops: 64e6, ActiveDims: 4000})
	var hier Cost
	for i := 0; i < 8; i++ {
		hier.MaxSeconds(f.Cost(Work{Ops: 8e6, ActiveDims: 500}))
	}
	if hier.Joules >= central.Joules {
		t.Fatalf("hierarchical energy %v J should beat centralized %v J", hier.Joules, central.Joules)
	}
	if hier.Seconds >= central.Seconds {
		t.Fatalf("hierarchical latency %v s should beat centralized %v s", hier.Seconds, central.Seconds)
	}
}
