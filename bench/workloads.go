package main

import (
	"fmt"
	"runtime"
)

// plane is the part of the system a workload drives.
type plane int

const (
	routed   plane = iota // hierarchy.Infer on an in-process System
	served                // serve.Server over loopback TCP
	training              // hierarchy training plus a federated round
)

// tenantShape is the model a served workload queries.
type tenantShape struct {
	dataset string
	dim     int
	train   int // training rows
	pool    int // distinct pre-encoded queries (capped by the dataset's test size)
}

// workload is one named set of inputs. Shapes are fixed; only how long
// the measured phase lasts comes from the command line.
type workload struct {
	name  string
	why   string
	plane plane
	// threshold is the routed plane's ConfidenceThreshold.
	threshold float64
	// tenant, window and paced shape the served plane: a closed loop
	// keeps window queries in flight per connection; a paced one sends
	// on a Poisson schedule of pacedRate queries a second in aggregate.
	tenant tenantShape
	window int
	paced  bool
}

// Shapes every workload of a plane shares. ISSUE 11 sized train-round at
// 4 000 rows a round; 1 000 keeps a round near 0.6 s so a run holds
// more than ten of them (operation counts scale, shapes do not).
const (
	hierDataset   = "PDP"
	hierDim       = 4096
	hierTrainRows = 2000
	hierEndNodes  = 5
	hierGroup     = 2

	pacedRate = 2000.0 // queries a second over all connections

	roundRows     = 1000
	roundTestRows = 2000
	fedShards     = 2
	fedDim        = 4096

	tenantName = "bench"
)

var (
	smallTenant = tenantShape{dataset: "PDP", dim: 2048, train: 400, pool: 4096}
	largeTenant = tenantShape{dataset: "ISOLET", dim: 4096, train: 1000, pool: 4096}
)

// defaultThreshold is the paper's §VI-A confidence threshold.
const defaultThreshold = 0.75

var (
	serveSaturateSmall = workload{
		name:   "serve-saturate-small",
		why:    "closed loop against serve over TCP with a k=2 D=2048 model: wire codec, admission queue, batching and reply writes own the time",
		plane:  served,
		tenant: smallTenant,
		window: 32,
	}
	servePaced = workload{
		name:   "serve-paced",
		why:    "open loop, Poisson arrivals at 2000 qps (about 6% of capacity), latency from the intended send time: the batch window sets latency, cost shows as CPU per query",
		plane:  served,
		tenant: smallTenant,
		paced:  true,
	}
)

var workloads = []workload{
	{
		name:      "infer-escalate",
		why:       "routed inference at the paper's 0.75 threshold: most queries escalate, so repeated leaf encoding and the ternary projection own the time",
		plane:     routed,
		threshold: defaultThreshold,
	},
	{
		name:      "infer-local",
		why:       "same hierarchy at threshold 0.5: every query resolves at its entry node, leaving one small encode, one small search and routing overhead",
		plane:     routed,
		threshold: 0.5,
	},
	serveSaturateSmall,
	{
		name:   "serve-saturate-large",
		why:    "same closed loop with a k=26 D=4096 model: associative search is about two thirds of the cost, so a search kernel shows here",
		plane:  served,
		tenant: largeTenant,
		window: 32,
	},
	servePaced,
	{
		name:  "train-round",
		why:   "hierarchy build and train plus a two-shard federated round per operation: the write side of the same layers, with large model frames on the wire",
		plane: training,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// callers is how many goroutines (or connections) generate load: two,
// but never more than the machine has processors.
func callers() int {
	return min(2, runtime.NumCPU())
}

// scale sizes a run. Real runs use div 1; the smoke test divides row
// and call counts so every workload finishes in well under a second.
type scale struct {
	seconds float64 // length of the measured phase
	// Set-up is repeated for its median: at least setups times, and on
	// until setupSeconds have gone by or maxSetups are done, so a cheap
	// set-up gets more repeats than an expensive one.
	setups       int
	setupSeconds float64
	div          int // divisor of row counts and probe call counts
}

const maxSetups = 7

func (s scale) rows(n int) int {
	return max(n/s.div, 40)
}

func (s scale) calls(n int) int {
	return max(n/s.div, 5)
}
