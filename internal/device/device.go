// Package device models the compute platforms of the paper's
// hardware-in-the-loop evaluation (§V, §VI-A): the Kintex-7 KC705 FPGA
// running the pipelined EdgeHD design and the GTX 1080 Ti GPU of the
// central server. Each profile converts an operation count into
// latency (ops ÷ throughput) and energy (power × latency), which is all
// the paper's speedup/energy-efficiency ratios depend on.
//
// Throughputs and powers are calibrated to the figures the paper
// reports: the centralized FPGA draws 9.8 W at D = 4000 while a
// hierarchical node's FPGA draws 0.28 W at its small per-node
// dimensionality, the GPU draws ~250 W, and HD-FPGA is slower but ~3×
// more energy-efficient than HD-GPU.
package device

// Profile describes one compute platform.
type Profile struct {
	Name string
	// MACRate is the sustained multiply-accumulate throughput in MAC/s
	// for encoding and DNN math.
	MACRate float64
	// OpRate is the sustained throughput of simple hypervector
	// component operations (add/sub/compare/popcount lanes) in ops/s.
	OpRate float64
	// StaticPower is the idle/board power draw in watts.
	StaticPower float64
	// PowerPerDim is the additional dynamic power per concurrently
	// active hypervector dimension, the FPGA lane-utilization model:
	// a node processing small hypervectors lights up fewer DSP/BRAM
	// lanes and burns proportionally less (§VI-D: 9.8 W centralized vs
	// 0.28 W per node).
	PowerPerDim float64
}

// FPGA returns the Kintex-7 KC705 profile running the pipelined §V
// design. With PowerPerDim·4000 + static ≈ 9.8 W at the default
// dimensionality, and ≈ 0.28 W at a 75-dimension end node.
func FPGA() Profile {
	return Profile{
		Name:        "FPGA-KC705",
		MACRate:     5e10,
		OpRate:      2e11,
		StaticPower: 0.10,
		PowerPerDim: 2.425e-3,
	}
}

// GPU returns the GTX 1080 Ti profile of the central server: roughly an
// order of magnitude more throughput than the FPGA at ~250 W board
// power, matching the paper's "HD-FPGA is slower than HD-GPU ... but
// 3.0× more energy efficient".
func GPU() Profile {
	return Profile{
		Name:        "GPU-GTX1080Ti",
		MACRate:     5e11,
		OpRate:      2e12,
		StaticPower: 250,
		PowerPerDim: 0,
	}
}

// Power returns the draw in watts while processing hypervectors of the
// given dimensionality.
func (p Profile) Power(activeDims int) float64 {
	return p.StaticPower + p.PowerPerDim*float64(activeDims)
}

// MACSeconds returns the latency of performing macs multiply-
// accumulates.
func (p Profile) MACSeconds(macs int64) float64 {
	if macs <= 0 {
		return 0
	}
	return float64(macs) / p.MACRate
}

// OpSeconds returns the latency of performing ops simple hypervector
// component operations.
func (p Profile) OpSeconds(ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(ops) / p.OpRate
}

// Cost is a latency/energy pair, the unit every efficiency experiment
// aggregates.
type Cost struct {
	Seconds float64
	Joules  float64
}

// Add accumulates another cost assuming sequential execution.
func (c *Cost) Add(o Cost) {
	c.Seconds += o.Seconds
	c.Joules += o.Joules
}

// MaxSeconds accumulates a parallel stage: energy adds, latency takes
// the maximum (devices at the same hierarchy level run concurrently).
func (c *Cost) MaxSeconds(o Cost) {
	if o.Seconds > c.Seconds {
		c.Seconds = o.Seconds
	}
	c.Joules += o.Joules
}

// Work describes one compute step in operation counts.
type Work struct {
	// MACs of dense multiply-accumulate (encoding dot products, DNN
	// layers).
	MACs int64
	// Ops of simple hypervector component work (bundling, associative
	// search, comparisons).
	Ops int64
	// ActiveDims is the hypervector dimensionality being processed,
	// for the lane-utilization power model.
	ActiveDims int
}

// Cost converts a work item into latency and energy on this profile.
func (p Profile) Cost(w Work) Cost {
	secs := p.MACSeconds(w.MACs) + p.OpSeconds(w.Ops)
	return Cost{Seconds: secs, Joules: secs * p.Power(w.ActiveDims)}
}
