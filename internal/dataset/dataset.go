// Package dataset provides seeded synthetic analogs of the nine
// evaluation datasets of Table I. The paper's datasets are either large
// public corpora (MNIST, ISOLET, UCI HAR, EXTRA, FACE) or instrumented
// testbed captures (PECAN, PAMAP2, APRI, PDP) that are not available
// offline, so each is replaced by a generator that preserves the
// properties the experiments actually measure:
//
//   - the feature count n, class count K and end-node partitioning of
//     Table I (hierarchy experiments split features across end nodes);
//   - non-linear class structure: every class is a union of two
//     antipodal Gaussian clusters (μ_c and −μ_c), which linear
//     classifiers cannot separate but kernel methods — and EdgeHD's
//     non-linear encoder — can. This is the property behind Fig 7's gap
//     between the linear-encoding HD baseline and EdgeHD;
//   - a per-dataset noise level tuned so centralized EdgeHD accuracy
//     lands near the paper's reported numbers (Table II).
//
// Generators are deterministic in their seed, and sizes are scalable so
// tests run in milliseconds while cmd/paper can use larger draws.
package dataset

import (
	"fmt"
	"math"

	"edgehd/internal/rng"
)

// Spec describes one benchmark dataset (one row of Table I).
type Spec struct {
	Name string
	// Features is the original feature count n.
	Features int
	// Classes is the class count K.
	Classes int
	// EndNodes is the number of end-node devices that jointly observe
	// the features (0 for the non-hierarchy datasets, listed "NA" in
	// Table I).
	EndNodes int
	// TrainSize and TestSize are the paper's full sample counts.
	TrainSize, TestSize int
	// Noise is the cluster standard deviation relative to the center
	// magnitude, tuned per dataset to land near the paper's accuracy.
	Noise float64
	// Description matches the paper's table annotation.
	Description string
}

// Hierarchical reports whether the dataset has an end-node partitioning
// and participates in the hierarchy experiments.
func (s Spec) Hierarchical() bool { return s.EndNodes > 0 }

// Specs returns all nine Table I dataset specifications.
func Specs() []Spec {
	return []Spec{
		{Name: "MNIST", Features: 784, Classes: 10, TrainSize: 60000, TestSize: 10000, Noise: 0.90, Description: "Handwritten Recognition"},
		{Name: "ISOLET", Features: 617, Classes: 26, TrainSize: 6238, TestSize: 1559, Noise: 0.65, Description: "Voice Recognition"},
		{Name: "UCIHAR", Features: 561, Classes: 12, TrainSize: 6213, TestSize: 1554, Noise: 0.95, Description: "Activity Recognition (Mobile)"},
		{Name: "EXTRA", Features: 225, Classes: 4, TrainSize: 146869, TestSize: 16343, Noise: 1.30, Description: "Smartphone Context Recognition"},
		{Name: "FACE", Features: 608, Classes: 2, TrainSize: 522441, TestSize: 2494, Noise: 1.30, Description: "Face Recognition"},
		{Name: "PECAN", Features: 312, Classes: 3, EndNodes: 312, TrainSize: 22290, TestSize: 5574, Noise: 0.35, Description: "Urban Electricity Prediction"},
		{Name: "PAMAP2", Features: 75, Classes: 5, EndNodes: 3, TrainSize: 611142, TestSize: 101582, Noise: 0.75, Description: "Activity Recognition (IMU)"},
		{Name: "APRI", Features: 36, Classes: 2, EndNodes: 3, TrainSize: 67017, TestSize: 1241, Noise: 0.85, Description: "Performance Identification"},
		{Name: "PDP", Features: 60, Classes: 2, EndNodes: 5, TrainSize: 17385, TestSize: 7334, Noise: 1.00, Description: "Power Demand Prediction"},
	}
}

// HierarchySpecs returns the four datasets used by the hierarchy
// experiments (Table II, Figs 8–13).
func HierarchySpecs() []Spec {
	var out []Spec
	for _, s := range Specs() {
		if s.Hierarchical() {
			out = append(out, s)
		}
	}
	return out
}

// ByName returns the spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Dataset is a concrete generated dataset: z-scored feature matrices
// with integer labels plus the end-node feature partition.
type Dataset struct {
	Spec   Spec
	TrainX [][]float64
	TrainY []int
	TestX  [][]float64
	TestY  []int
	// Partition assigns each end node its feature index range;
	// Partition[i] lists the feature indices observed by end node i.
	// Empty for non-hierarchical datasets.
	Partition [][]int
}

// Options bounds the generated sizes. Zero values fall back to the
// spec's full paper sizes.
type Options struct {
	// MaxTrain and MaxTest cap the generated sample counts; the paper's
	// full sizes (hundreds of thousands of rows for FACE or PAMAP2) are
	// unnecessary for shape reproduction.
	MaxTrain, MaxTest int
}

// Generate draws the dataset deterministically from seed.
func (s Spec) Generate(seed uint64, opts Options) *Dataset {
	nTrain, nTest := s.TrainSize, s.TestSize
	if opts.MaxTrain > 0 && nTrain > opts.MaxTrain {
		nTrain = opts.MaxTrain
	}
	if opts.MaxTest > 0 && nTest > opts.MaxTest {
		nTest = opts.MaxTest
	}
	r := rng.New(seed)

	// Two antipodal centers per class: ±μ_c. Classes are separated in
	// direction, not in halfspace, so no linear boundary works.
	centers := make([][]float64, s.Classes)
	for c := range centers {
		mu := r.NormVec(s.Features, nil)
		centers[c] = mu
	}

	sample := func(label int) []float64 {
		mu := centers[label]
		sign := 1.0
		if r.Bernoulli(0.5) {
			sign = -1
		}
		f := make([]float64, s.Features)
		for i := range f {
			f[i] = sign*mu[i] + s.Noise*r.Norm()
		}
		return f
	}

	gen := func(n int) ([][]float64, []int) {
		xs := make([][]float64, n)
		ys := make([]int, n)
		for i := 0; i < n; i++ {
			ys[i] = r.Intn(s.Classes)
			xs[i] = sample(ys[i])
		}
		return xs, ys
	}

	d := &Dataset{Spec: s}
	d.TrainX, d.TrainY = gen(nTrain)
	d.TestX, d.TestY = gen(nTest)
	d.Partition = s.partition()
	normalize(d)
	return d
}

// partition splits the feature indices across the spec's end nodes in
// contiguous, nearly equal ranges: PECAN gets 312 single-feature
// appliances, PAMAP2 three 25-feature IMU sensors, APRI three 12-counter
// servers, PDP five 12-counter servers.
func (s Spec) partition() [][]int {
	if s.EndNodes == 0 {
		return nil
	}
	out := make([][]int, s.EndNodes)
	base := s.Features / s.EndNodes
	extra := s.Features % s.EndNodes
	idx := 0
	for i := 0; i < s.EndNodes; i++ {
		size := base
		if i < extra {
			size++
		}
		rangeIdx := make([]int, size)
		for j := 0; j < size; j++ {
			rangeIdx[j] = idx
			idx++
		}
		out[i] = rangeIdx
	}
	return out
}

// normalize z-scores every feature using the training statistics and
// applies the same transform to the test set, as the paper's scikit-
// learn pipeline would.
func normalize(d *Dataset) {
	if len(d.TrainX) == 0 {
		return
	}
	n := len(d.TrainX[0])
	mean := make([]float64, n)
	std := make([]float64, n)
	for _, row := range d.TrainX {
		for i, v := range row {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(d.TrainX))
	}
	for _, row := range d.TrainX {
		for i, v := range row {
			diff := v - mean[i]
			std[i] += diff * diff
		}
	}
	for i := range std {
		std[i] = math.Sqrt(std[i] / float64(len(d.TrainX)))
		if std[i] == 0 {
			std[i] = 1
		}
	}
	apply := func(xs [][]float64) {
		for _, row := range xs {
			for i := range row {
				row[i] = (row[i] - mean[i]) / std[i]
			}
		}
	}
	apply(d.TrainX)
	apply(d.TestX)
}

// Project returns the columns of x restricted to the given feature
// indices — the view a single end node has of a sample.
func Project(x []float64, features []int) []float64 {
	out := make([]float64, len(features))
	for i, f := range features {
		out[i] = x[f]
	}
	return out
}
