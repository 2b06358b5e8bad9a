package baseline

import (
	"fmt"
	"math"
	"sort"

	"edgehd/internal/rng"
)

// AdaBoost is the SAMME multi-class boosting algorithm over decision
// stumps, the scikit-learn AdaBoostClassifier configuration the paper
// benchmarks in Fig 7.
type AdaBoost struct {
	cfg     AdaBoostConfig
	in, out int
	stumps  []stump
	alphas  []float64
	r       *rng.Source
}

var _ Learner = (*AdaBoost)(nil)

// AdaBoostConfig holds the hyperparameters; zero values select defaults.
type AdaBoostConfig struct {
	// Rounds of boosting. Default 50.
	Rounds int
	// Thresholds per feature to consider when fitting a stump
	// (quantile candidates). Default 8.
	Thresholds int
	// FeatureSubsample caps the features examined per split; fitting a
	// depth-2 tree exhaustively is quadratic in the feature count, so
	// wide datasets search a random subset per round (random-forest
	// style). Default max(8, √n).
	FeatureSubsample int
	// Seed drives the feature subsampling.
	Seed uint64
}

func (c *AdaBoostConfig) fill() {
	if c.Rounds == 0 {
		c.Rounds = 50
	}
	if c.Thresholds == 0 {
		c.Thresholds = 8
	}
}

// stump is a depth-2 decision tree: a root split on one feature whose
// two branches each split again on (possibly different) features,
// yielding four leaf classes. Plain depth-1 stumps carry no signal on
// symmetric multi-modal classes (any class straddling the origin looks
// identical on both sides of every single-feature threshold), which is
// why scikit-learn's AdaBoost defaults are usually paired with trees
// rather than pure stumps.
type stump struct {
	feature   int
	threshold float64
	// left and right are the sub-splits of the two branches.
	left, right subSplit
}

// subSplit is one depth-2 branch: a second threshold on a feature with
// two leaf classes.
type subSplit struct {
	feature   int
	threshold float64
	lo, hi    int
}

func (s subSplit) predict(x []float64) int {
	if x[s.feature] < s.threshold {
		return s.lo
	}
	return s.hi
}

func (s stump) predict(x []float64) int {
	if x[s.feature] < s.threshold {
		return s.left.predict(x)
	}
	return s.right.predict(x)
}

// NewAdaBoost constructs an untrained booster for in features and out
// classes.
func NewAdaBoost(in, out int, cfg AdaBoostConfig) (*AdaBoost, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("baseline: non-positive AdaBoost size %dx%d", in, out)
	}
	cfg.fill()
	if cfg.FeatureSubsample == 0 {
		cfg.FeatureSubsample = int(math.Sqrt(float64(in)))
		if cfg.FeatureSubsample < 8 {
			cfg.FeatureSubsample = 8
		}
	}
	if cfg.FeatureSubsample > in {
		cfg.FeatureSubsample = in
	}
	return &AdaBoost{cfg: cfg, in: in, out: out, r: rng.New(cfg.Seed)}, nil
}

// Name implements Learner.
func (a *AdaBoost) Name() string { return "AdaBoost" }

// Fit implements Learner with the SAMME weight-update rule.
func (a *AdaBoost) Fit(x [][]float64, y []int) error {
	if err := validate(x, y, a.out); err != nil {
		return err
	}
	n := len(x)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	a.stumps = a.stumps[:0]
	a.alphas = a.alphas[:0]
	k := float64(a.out)
	for round := 0; round < a.cfg.Rounds; round++ {
		st, err := a.bestStump(x, y, w)
		if err > 0.5*(k-1)/k || err <= 0 {
			if len(a.stumps) == 0 && err <= 0 {
				// Perfect stump: keep it alone.
				a.stumps = append(a.stumps, st)
				a.alphas = append(a.alphas, 1)
			}
			break
		}
		alpha := math.Log((1-err)/err) + math.Log(k-1)
		a.stumps = append(a.stumps, st)
		a.alphas = append(a.alphas, alpha)
		var sum float64
		for i := range w {
			if st.predict(x[i]) != y[i] {
				w[i] *= math.Exp(alpha)
			}
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
	}
	return nil
}

// bestStump greedily fits a depth-2 tree: the root split maximizes the
// weighted accuracy achievable by its two depth-1 children, each child
// fitted by an exhaustive feature × quantile-threshold search on its
// branch's samples.
func (a *AdaBoost) bestStump(x [][]float64, y []int, w []float64) (stump, float64) {
	bestErr := math.Inf(1)
	var best stump
	vals := make([]float64, len(x))
	idxLeft := make([]int, 0, len(x))
	idxRight := make([]int, 0, len(x))
	for _, f := range a.sampleFeatures() {
		for i, row := range x {
			vals[i] = row[f]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for q := 1; q <= a.cfg.Thresholds; q++ {
			thr := sorted[len(sorted)*q/(a.cfg.Thresholds+1)]
			idxLeft = idxLeft[:0]
			idxRight = idxRight[:0]
			for i := range x {
				if vals[i] < thr {
					idxLeft = append(idxLeft, i)
				} else {
					idxRight = append(idxRight, i)
				}
			}
			left, leftCorrect := a.bestSubSplit(x, y, w, idxLeft)
			right, rightCorrect := a.bestSubSplit(x, y, w, idxRight)
			if err := 1 - leftCorrect - rightCorrect; err < bestErr {
				bestErr = err
				best = stump{feature: f, threshold: thr, left: left, right: right}
			}
		}
	}
	return best, bestErr
}

// bestSubSplit fits the depth-1 split over the subset of samples in
// idx, returning the split and the total sample weight it classifies
// correctly.
func (a *AdaBoost) bestSubSplit(x [][]float64, y []int, w []float64, idx []int) (subSplit, float64) {
	var best subSplit
	bestCorrect := -1.0
	loW := make([]float64, a.out)
	hiW := make([]float64, a.out)
	if len(idx) == 0 {
		return subSplit{}, 0
	}
	vals := make([]float64, len(idx))
	sorted := make([]float64, len(idx))
	for _, f := range a.sampleFeatures() {
		for j, i := range idx {
			vals[j] = x[i][f]
		}
		copy(sorted, vals)
		sort.Float64s(sorted)
		for q := 1; q <= a.cfg.Thresholds; q++ {
			thr := sorted[len(sorted)*q/(a.cfg.Thresholds+1)]
			for c := range loW {
				loW[c], hiW[c] = 0, 0
			}
			for j, i := range idx {
				if vals[j] < thr {
					loW[y[i]] += w[i]
				} else {
					hiW[y[i]] += w[i]
				}
			}
			lo, hi := argMaxF(loW), argMaxF(hiW)
			correct := loW[lo] + hiW[hi]
			if correct > bestCorrect {
				bestCorrect = correct
				best = subSplit{feature: f, threshold: thr, lo: lo, hi: hi}
			}
		}
	}
	return best, bestCorrect
}

// sampleFeatures returns the feature subset examined by one split
// search: all features when the subsample covers them, otherwise a
// fresh random subset.
func (a *AdaBoost) sampleFeatures() []int {
	if a.cfg.FeatureSubsample >= a.in {
		out := make([]int, a.in)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := a.r.Perm(a.in)
	return perm[:a.cfg.FeatureSubsample]
}

func argMaxF(v []float64) int {
	best := 0
	for i, x := range v[1:] {
		if x > v[best] {
			best = i + 1
		}
	}
	return best
}

// Predict implements Learner: weighted vote of the stumps.
func (a *AdaBoost) Predict(x []float64) int {
	votes := make([]float64, a.out)
	for i, st := range a.stumps {
		votes[st.predict(x)] += a.alphas[i]
	}
	return argMaxF(votes)
}
