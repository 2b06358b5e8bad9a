package core

import (
	"testing"

	"edgehd/internal/hdc"
	"edgehd/internal/rng"
)

func TestResidualFeedbackApplied(t *testing.T) {
	const dim, k = 512, 2
	r := rng.New(1)
	m := must(NewModel(dim, k))
	h := hdc.RandomBipolar(dim, r)
	// Poison class 0 with h so the model predicts 0 for it.
	m.Add(0, h)
	m.Add(1, hdc.RandomBipolar(dim, r))
	if m.Predict(h) != 0 {
		t.Fatal("setup: model should predict class 0")
	}
	res := must(NewResidual(dim, k))
	// Users reject that prediction several times.
	for i := 0; i < 3; i++ {
		res.NegativeFeedback(0, h)
	}
	if res.TotalFeedback() != 3 || res.count[0] != 3 {
		t.Fatalf("feedback counters wrong: total=%d class0=%d", res.TotalFeedback(), res.count[0])
	}
	if err := res.ApplyTo(m); err != nil {
		t.Fatal(err)
	}
	if m.Predict(h) == 0 {
		t.Fatal("negative feedback did not move the prediction away from class 0")
	}
	if !residualIsZero(res) || res.TotalFeedback() != 0 {
		t.Fatal("ApplyTo did not reset the residuals")
	}
}

func TestResidualOnlineLearningImprovesAccuracy(t *testing.T) {
	// Emulate §IV-D: train offline on half the data, then stream the
	// rest, giving negative feedback on mispredictions and applying the
	// residuals periodically. Accuracy on a held-out set must improve.
	const dim, k = 2048, 4
	_, all, test := blobs(t, 10, k, 60, dim, 0.6, 11)
	half := len(all) / 2
	offline, online := all[:half], all[half:]
	m := must(NewModel(dim, k))
	for _, s := range offline {
		m.Add(s.Label, s.HV)
	}
	m.Retrain(offline, 5)
	before := accuracy(m, test)

	res := must(NewResidual(dim, k))
	for i, s := range online {
		pred := m.Predict(s.HV)
		if pred != s.Label {
			res.NegativeFeedback(pred, s.HV)
			// Online learning also bundles the (implicitly corrected)
			// sample into the right class when the user supplies it; the
			// paper's weakest assumption is negative-only feedback, so
			// only subtract here.
		}
		if (i+1)%50 == 0 {
			if err := res.ApplyTo(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !residualIsZero(res) {
		if err := res.ApplyTo(m); err != nil {
			t.Fatal(err)
		}
	}
	after := accuracy(m, test)
	if after <= before {
		t.Fatalf("online negative feedback did not improve accuracy: %v → %v", before, after)
	}
}

func TestResidualShapeMismatch(t *testing.T) {
	res := must(NewResidual(64, 2))
	if err := res.ApplyTo(must(NewModel(64, 3))); err == nil {
		t.Fatal("ApplyTo accepted mismatched class count")
	}
	if err := res.ApplyTo(must(NewModel(32, 2))); err == nil {
		t.Fatal("ApplyTo accepted mismatched dimension")
	}
	if err := res.AddAcc(0, hdc.NewAcc(32)); err == nil {
		t.Fatal("AddAcc accepted mismatched dimension")
	}
}

func TestResidualSnapshotDoesNotClear(t *testing.T) {
	res := must(NewResidual(64, 2))
	res.NegativeFeedback(1, hdc.RandomBipolar(64, rng.New(2)))
	snap := res.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot length = %d", len(snap))
	}
	if snap[1].IsZero() {
		t.Fatal("snapshot lost the feedback")
	}
	if residualIsZero(res) {
		t.Fatal("Snapshot cleared the residuals")
	}
}

func TestResidualAddAccFromChild(t *testing.T) {
	res := must(NewResidual(64, 2))
	child := hdc.NewAcc(64)
	child.AddBipolar(hdc.RandomBipolar(64, rng.New(3)))
	if err := res.AddAcc(1, child); err != nil {
		t.Fatal(err)
	}
	if res.res[1].IsZero() {
		t.Fatal("child residual not folded in")
	}
}

func TestClassifierFitPredict(t *testing.T) {
	enc, train, test := blobs(t, 12, 3, 25, 1024, 0.4, 21)
	_ = enc
	// Re-derive raw features for the classifier path: build a fresh
	// problem directly with feature matrices.
	r := rng.New(22)
	const n, k = 12, 3
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = r.NormVec(n, nil)
		for i := range centers[c] {
			centers[c][i] *= 2
		}
	}
	gen := func(count int) ([][]float64, []int) {
		var xs [][]float64
		var ys []int
		for c := 0; c < k; c++ {
			for s := 0; s < count; s++ {
				f := make([]float64, n)
				for i := range f {
					f[i] = centers[c][i] + 0.4*r.Norm()
				}
				xs = append(xs, f)
				ys = append(ys, c)
			}
		}
		return xs, ys
	}
	xTrain, yTrain := gen(30)
	xTest, yTest := gen(10)
	clf := must(NewClassifier(newTestEncoder(n, 1024, 23), k))
	if _, err := clf.Fit(xTrain, yTrain, 5); err != nil {
		t.Fatal(err)
	}
	acc, err := clf.Evaluate(xTest, yTest)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("classifier accuracy = %v, want ≥ 0.9", acc)
	}
	cls, conf := clf.PredictConfidence(xTest[0])
	if cls < 0 || cls >= k || conf < 0 || conf > 1 {
		t.Fatalf("PredictConfidence returned class=%d conf=%v", cls, conf)
	}
	_ = train
	_ = test
}

func TestClassifierFitValidation(t *testing.T) {
	clf := must(NewClassifier(newTestEncoder(4, 128, 1), 2))
	if _, err := clf.Fit([][]float64{{1, 2, 3, 4}}, []int{0, 1}, 1); err == nil {
		t.Fatal("Fit accepted mismatched rows/labels")
	}
	if _, err := clf.Fit([][]float64{{1, 2, 3, 4}}, []int{7}, 1); err == nil {
		t.Fatal("Fit accepted out-of-range label")
	}
	if _, err := clf.Evaluate([][]float64{{1, 2, 3, 4}}, nil); err == nil {
		t.Fatal("Evaluate accepted mismatched rows/labels")
	}
}

// residualIsZero reports whether no feedback is accumulated in r.
func residualIsZero(r *Residual) bool {
	for _, a := range r.res {
		if !a.IsZero() {
			return false
		}
	}
	return true
}
