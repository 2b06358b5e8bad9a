package baseline

import (
	"fmt"

	"edgehd/internal/encoding"
	"edgehd/internal/rng"
)

// SVM is a linear support vector machine trained with the Pegasos
// stochastic subgradient method on the hinge loss, behind an RBF
// random-feature map (see NewRBFSVM), so it approximates the kernelized
// SVM the paper benchmarks via scikit-learn.
type SVM struct {
	cfg     SVMConfig
	in, out int
	// w[c] is the weight vector of class c; b[c] its bias.
	w [][]float64
	b []float64
	// rff maps inputs before the linear machine.
	rff *encoding.RFF
	r   *rng.Source
}

var _ Learner = (*SVM)(nil)

// SVMConfig holds the hyperparameters; zero values select defaults.
type SVMConfig struct {
	// Lambda is the Pegasos regularization strength. Default 1e-4.
	Lambda float64
	// Epochs over the training set. Default 20.
	Epochs int
	// Seed for sample ordering.
	Seed uint64
}

func (c *SVMConfig) fill() {
	if c.Lambda == 0 {
		c.Lambda = 1e-4
	}
	if c.Epochs == 0 {
		c.Epochs = 20
	}
}

// NewRBFSVM constructs an RBF-kernel SVM approximated with rffDim random
// Fourier features of the given length scale (0 = default 1). This is
// the configuration Fig 7 calls "SVM": grid-searched kernel SVMs.
func NewRBFSVM(in, out, rffDim int, lengthScale float64, cfg SVMConfig) (*SVM, error) {
	if rffDim <= 0 {
		return nil, fmt.Errorf("baseline: non-positive RFF dimension %d", rffDim)
	}
	cfg.fill()
	rff, err := encoding.NewRFF(in, rffDim, cfg.Seed+1, lengthScale)
	if err != nil {
		return nil, fmt.Errorf("baseline: rbf-svm feature map: %w", err)
	}
	return &SVM{cfg: cfg, in: rffDim, out: out, rff: rff, r: rng.New(cfg.Seed)}, nil
}

// Name implements Learner.
func (s *SVM) Name() string { return "SVM" }

// Fit implements Learner with the multiclass (Crammer-Singer) Pegasos
// subgradient method: for each sample, find the most-violating rival
// class r = argmax_{c≠y} w_c·x; when the multiclass margin
// w_y·x − w_r·x falls below 1, move w_y toward the sample and w_r away
// from it. Unlike independent one-vs-rest hinges — which collapse to
// the all-negative solution as the class count grows and each binary
// problem becomes extremely imbalanced — the multiclass hinge optimizes
// the argmax decision directly and is stable at any k.
func (s *SVM) Fit(x [][]float64, y []int) error {
	if err := validate(x, y, s.out); err != nil {
		return err
	}
	mapped := make([][]float64, len(x))
	for i, row := range x {
		mapped[i] = s.rff.Map(row)
	}
	s.w = make([][]float64, s.out)
	s.b = make([]float64, s.out)
	for c := range s.w {
		s.w[c] = make([]float64, s.in)
	}
	idx := make([]int, len(mapped))
	for i := range idx {
		idx[i] = i
	}
	margins := make([]float64, s.out)
	t := 1
	for epoch := 0; epoch < s.cfg.Epochs; epoch++ {
		s.r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			eta := 1 / (s.cfg.Lambda * float64(t))
			t++
			xi := mapped[i]
			for c := 0; c < s.out; c++ {
				m := s.b[c]
				w := s.w[c]
				for j, v := range xi {
					m += w[j] * v
				}
				margins[c] = m
			}
			// Most-violating rival.
			rival := -1
			for c := range margins {
				if c == y[i] {
					continue
				}
				if rival < 0 || margins[c] > margins[rival] {
					rival = c
				}
			}
			// Regularization shrink applies every step.
			shrink := 1 - eta*s.cfg.Lambda
			for c := range s.w {
				w := s.w[c]
				for j := range w {
					w[j] *= shrink
				}
			}
			if rival >= 0 && margins[y[i]]-margins[rival] < 1 {
				wy, wr := s.w[y[i]], s.w[rival]
				for j, v := range xi {
					wy[j] += eta * v
					wr[j] -= eta * v
				}
				s.b[y[i]] += eta
				s.b[rival] -= eta
			}
		}
	}
	return nil
}

// Decision returns the per-class margins for a sample.
func (s *SVM) Decision(x []float64) []float64 {
	xi := s.rff.Map(x)
	out := make([]float64, s.out)
	for c := 0; c < s.out; c++ {
		m := s.b[c]
		for j, v := range xi {
			m += s.w[c][j] * v
		}
		out[c] = m
	}
	return out
}

// Predict implements Learner.
func (s *SVM) Predict(x []float64) int {
	d := s.Decision(x)
	best := 0
	for i, v := range d[1:] {
		if v > d[best] {
			best = i + 1
		}
	}
	return best
}
