package baseline

import (
	"fmt"
	"math"

	"edgehd/internal/rng"
)

// MLP is a fully connected feed-forward network with ReLU hidden layers
// and a softmax output, trained by minibatch SGD with momentum on the
// cross-entropy loss. It stands in for the paper's TensorFlow DNN
// (Fig 7, Fig 10, Fig 12); the paper found grid-searched DNNs comparable
// in accuracy to EdgeHD but far more expensive, which is exactly the
// trade-off the op-count accessors expose to the device models.
type MLP struct {
	cfg     MLPConfig
	in, out int
	// weights[l] is a (fanOut × fanIn) matrix stored row-major;
	// biases[l] has fanOut entries.
	weights [][]float64
	biases  [][]float64
	shapes  []int // layer widths including input and output
	r       *rng.Source
}

var _ Learner = (*MLP)(nil)

// MLPConfig holds the hyperparameters. Zero values select defaults that
// match the scale of the synthetic datasets.
type MLPConfig struct {
	// Hidden lists the hidden-layer widths. Default: one layer of 128.
	Hidden []int
	// Epochs of SGD. Default 30.
	Epochs int
	// BatchSize of each SGD step. Default 32.
	BatchSize int
	// LearningRate for SGD. Default 0.05.
	LearningRate float64
	// Momentum coefficient. Default 0.9.
	Momentum float64
	// Seed for weight init and batch shuffling.
	Seed uint64
}

func (c *MLPConfig) fill() {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{128}
	}
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
}

// NewMLP constructs an untrained network for in features and out classes.
func NewMLP(in, out int, cfg MLPConfig) (*MLP, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("baseline: non-positive MLP size %dx%d", in, out)
	}
	cfg.fill()
	m := &MLP{cfg: cfg, in: in, out: out, r: rng.New(cfg.Seed)}
	m.shapes = append(append([]int{in}, cfg.Hidden...), out)
	m.weights = make([][]float64, len(m.shapes)-1)
	m.biases = make([][]float64, len(m.shapes)-1)
	for l := 0; l < len(m.shapes)-1; l++ {
		fanIn, fanOut := m.shapes[l], m.shapes[l+1]
		w := make([]float64, fanIn*fanOut)
		scale := math.Sqrt(2 / float64(fanIn)) // He init for ReLU
		for i := range w {
			w[i] = m.r.Norm() * scale
		}
		m.weights[l] = w
		m.biases[l] = make([]float64, fanOut)
	}
	return m, nil
}

// Name implements Learner.
func (m *MLP) Name() string { return "DNN" }

// forward runs the network, returning the activations of every layer
// (activations[0] is the input, the last is the softmax output).
func (m *MLP) forward(x []float64) [][]float64 {
	acts := make([][]float64, len(m.shapes))
	acts[0] = x
	cur := x
	for l := 0; l < len(m.weights); l++ {
		fanIn, fanOut := m.shapes[l], m.shapes[l+1]
		next := make([]float64, fanOut)
		w := m.weights[l]
		for o := 0; o < fanOut; o++ {
			s := m.biases[l][o]
			row := w[o*fanIn : (o+1)*fanIn]
			for i, v := range cur {
				s += row[i] * v
			}
			next[o] = s
		}
		if l < len(m.weights)-1 { // ReLU on hidden layers
			for o := range next {
				if next[o] < 0 {
					next[o] = 0
				}
			}
		} else {
			softmaxInPlace(next)
		}
		acts[l+1] = next
		cur = next
	}
	return acts
}

func softmaxInPlace(v []float64) {
	maxV := v[0]
	for _, x := range v[1:] {
		if x > maxV {
			maxV = x
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(x - maxV)
		v[i] = e
		sum += e
	}
	for i := range v {
		v[i] /= sum
	}
}

// Fit implements Learner.
func (m *MLP) Fit(x [][]float64, y []int) error {
	if err := validate(x, y, m.out); err != nil {
		return err
	}
	vel := make([][]float64, len(m.weights))
	velB := make([][]float64, len(m.biases))
	for l := range m.weights {
		vel[l] = make([]float64, len(m.weights[l]))
		velB[l] = make([]float64, len(m.biases[l]))
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	gradW := make([][]float64, len(m.weights))
	gradB := make([][]float64, len(m.biases))
	for l := range m.weights {
		gradW[l] = make([]float64, len(m.weights[l]))
		gradB[l] = make([]float64, len(m.biases[l]))
	}
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		m.r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += m.cfg.BatchSize {
			end := start + m.cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			for l := range gradW {
				clear(gradW[l])
				clear(gradB[l])
			}
			for _, s := range idx[start:end] {
				m.accumulateGradients(x[s], y[s], gradW, gradB)
			}
			lr := m.cfg.LearningRate / float64(end-start)
			for l := range m.weights {
				for i := range m.weights[l] {
					vel[l][i] = m.cfg.Momentum*vel[l][i] - lr*gradW[l][i]
					m.weights[l][i] += vel[l][i]
				}
				for i := range m.biases[l] {
					velB[l][i] = m.cfg.Momentum*velB[l][i] - lr*gradB[l][i]
					m.biases[l][i] += velB[l][i]
				}
			}
		}
	}
	return nil
}

// accumulateGradients backpropagates one sample's cross-entropy gradient
// into gradW/gradB.
func (m *MLP) accumulateGradients(x []float64, label int, gradW, gradB [][]float64) {
	acts := m.forward(x)
	// Output delta of softmax+CE: p − onehot(y).
	last := len(m.weights) - 1
	delta := append([]float64(nil), acts[len(acts)-1]...)
	delta[label]--
	for l := last; l >= 0; l-- {
		fanIn := m.shapes[l]
		in := acts[l]
		w := m.weights[l]
		for o, d := range delta {
			gradB[l][o] += d
			row := gradW[l][o*fanIn : (o+1)*fanIn]
			for i, v := range in {
				row[i] += d * v
			}
		}
		if l == 0 {
			break
		}
		// Propagate through the weights and the ReLU derivative.
		prev := make([]float64, fanIn)
		for o, d := range delta {
			row := w[o*fanIn : (o+1)*fanIn]
			for i := range prev {
				prev[i] += d * row[i]
			}
		}
		for i := range prev {
			if acts[l][i] <= 0 {
				prev[i] = 0
			}
		}
		delta = prev
	}
}

// Predict implements Learner.
func (m *MLP) Predict(x []float64) int {
	out := m.forward(x)[len(m.shapes)-1]
	best := 0
	for i, v := range out[1:] {
		if v > out[best] {
			best = i + 1
		}
	}
	return best
}

// ForwardMACs returns the multiply-accumulates of one forward pass —
// what the device models charge for a DNN inference.
func (m *MLP) ForwardMACs() int64 {
	var macs int64
	for l := 0; l < len(m.shapes)-1; l++ {
		macs += int64(m.shapes[l]) * int64(m.shapes[l+1])
	}
	return macs
}

// TrainMACs returns the multiply-accumulates of one training pass over
// nSamples for the configured epoch count. Backpropagation costs roughly
// 3× the forward pass (forward + two gradient products), the standard
// estimate the paper's efficiency comparison implies.
func (m *MLP) TrainMACs(nSamples int) int64 {
	return 3 * m.ForwardMACs() * int64(nSamples) * int64(m.cfg.Epochs)
}
