// Package baseline implements the comparison learners of the paper's
// evaluation, from scratch on the standard library: a multilayer
// perceptron trained with backpropagation (the paper's TensorFlow DNN),
// an RBF-kernel support vector machine trained with the Pegasos
// subgradient method (scikit-learn SVM), SAMME AdaBoost over decision
// stumps (scikit-learn AdaBoost), and the prior linear-encoding HD
// classifier of [36] that Fig 7 reports as "baseline HD".
package baseline

import "fmt"

// Learner is the minimal training/prediction contract shared by every
// baseline, mirroring what the experiment harness needs from them.
type Learner interface {
	// Name identifies the learner in experiment tables.
	Name() string
	// Fit trains on a labelled feature matrix.
	Fit(x [][]float64, y []int) error
	// Predict classifies a single feature vector.
	Predict(x []float64) int
}

// Evaluate returns the accuracy of l over a labelled test set.
func Evaluate(l Learner, x [][]float64, y []int) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("baseline: %d rows but %d labels", len(x), len(y))
	}
	if len(x) == 0 {
		return 0, nil
	}
	correct := 0
	for i, row := range x {
		if l.Predict(row) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x)), nil
}

func validate(x [][]float64, y []int, classes int) error {
	if len(x) != len(y) {
		return fmt.Errorf("baseline: %d rows but %d labels", len(x), len(y))
	}
	if len(x) == 0 {
		return fmt.Errorf("baseline: empty training set")
	}
	for i, label := range y {
		if label < 0 || label >= classes {
			return fmt.Errorf("baseline: label %d at row %d out of range [0,%d)", label, i, classes)
		}
	}
	return nil
}
