package dataset

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpecsMatchTableI(t *testing.T) {
	want := []struct {
		name               string
		n, k, nodes        int
		trainFull, tstFull int
	}{
		{"MNIST", 784, 10, 0, 60000, 10000},
		{"ISOLET", 617, 26, 0, 6238, 1559},
		{"UCIHAR", 561, 12, 0, 6213, 1554},
		{"EXTRA", 225, 4, 0, 146869, 16343},
		{"FACE", 608, 2, 0, 522441, 2494},
		{"PECAN", 312, 3, 312, 22290, 5574},
		{"PAMAP2", 75, 5, 3, 611142, 101582},
		{"APRI", 36, 2, 3, 67017, 1241},
		{"PDP", 60, 2, 5, 17385, 7334},
	}
	specs := Specs()
	if len(specs) != len(want) {
		t.Fatalf("got %d specs, want %d", len(specs), len(want))
	}
	for i, w := range want {
		s := specs[i]
		if s.Name != w.name || s.Features != w.n || s.Classes != w.k ||
			s.EndNodes != w.nodes || s.TrainSize != w.trainFull || s.TestSize != w.tstFull {
			t.Errorf("spec %d = %+v, want %+v", i, s, w)
		}
	}
}

func TestHierarchySpecs(t *testing.T) {
	hs := HierarchySpecs()
	if len(hs) != 4 {
		t.Fatalf("got %d hierarchy specs, want 4", len(hs))
	}
	names := map[string]bool{}
	for _, s := range hs {
		if !s.Hierarchical() {
			t.Errorf("%s listed as hierarchical but has no end nodes", s.Name)
		}
		names[s.Name] = true
	}
	for _, n := range []string{"PECAN", "PAMAP2", "APRI", "PDP"} {
		if !names[n] {
			t.Errorf("hierarchy specs missing %s", n)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("PECAN")
	if err != nil || s.Name != "PECAN" {
		t.Fatalf("ByName(PECAN) = %v, %v", s, err)
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Fatal("ByName accepted an unknown dataset")
	}
}

func TestGenerateShapes(t *testing.T) {
	s, _ := ByName("APRI")
	d := s.Generate(1, Options{MaxTrain: 200, MaxTest: 50})
	if len(d.TrainX) != 200 || len(d.TrainY) != 200 {
		t.Fatalf("train shape %d/%d", len(d.TrainX), len(d.TrainY))
	}
	if len(d.TestX) != 50 || len(d.TestY) != 50 {
		t.Fatalf("test shape %d/%d", len(d.TestX), len(d.TestY))
	}
	for _, row := range d.TrainX {
		if len(row) != s.Features {
			t.Fatalf("row width %d, want %d", len(row), s.Features)
		}
	}
	for _, y := range d.TrainY {
		if y < 0 || y >= s.Classes {
			t.Fatalf("label %d out of range", y)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, _ := ByName("PDP")
	a := s.Generate(7, Options{MaxTrain: 100, MaxTest: 20})
	b := s.Generate(7, Options{MaxTrain: 100, MaxTest: 20})
	for i := range a.TrainX {
		if a.TrainY[i] != b.TrainY[i] {
			t.Fatalf("labels diverge at %d", i)
		}
		for j := range a.TrainX[i] {
			if a.TrainX[i][j] != b.TrainX[i][j] {
				t.Fatalf("features diverge at %d,%d", i, j)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	s, _ := ByName("PDP")
	a := s.Generate(1, Options{MaxTrain: 50, MaxTest: 10})
	b := s.Generate(2, Options{MaxTrain: 50, MaxTest: 10})
	same := true
	for j := range a.TrainX[0] {
		if a.TrainX[0][j] != b.TrainX[0][j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical first rows")
	}
}

func TestNormalization(t *testing.T) {
	s, _ := ByName("APRI")
	d := s.Generate(3, Options{MaxTrain: 2000, MaxTest: 100})
	// Each training column should be ~zero-mean unit-variance.
	n := s.Features
	for col := 0; col < n; col++ {
		var mean, varSum float64
		for _, row := range d.TrainX {
			mean += row[col]
		}
		mean /= float64(len(d.TrainX))
		for _, row := range d.TrainX {
			diff := row[col] - mean
			varSum += diff * diff
		}
		sd := math.Sqrt(varSum / float64(len(d.TrainX)))
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("column %d mean = %v after z-scoring", col, mean)
		}
		if math.Abs(sd-1) > 1e-9 {
			t.Fatalf("column %d std = %v after z-scoring", col, sd)
		}
	}
}

func TestPartitionCoversAllFeatures(t *testing.T) {
	for _, s := range HierarchySpecs() {
		d := s.Generate(1, Options{MaxTrain: 10, MaxTest: 5})
		if len(d.Partition) != s.EndNodes {
			t.Fatalf("%s: %d partitions, want %d", s.Name, len(d.Partition), s.EndNodes)
		}
		seen := make([]bool, s.Features)
		for _, p := range d.Partition {
			if len(p) == 0 {
				t.Fatalf("%s: empty partition", s.Name)
			}
			for _, f := range p {
				if f < 0 || f >= s.Features || seen[f] {
					t.Fatalf("%s: partition not a disjoint cover (feature %d)", s.Name, f)
				}
				seen[f] = true
			}
		}
		for f, ok := range seen {
			if !ok {
				t.Fatalf("%s: feature %d not assigned to any end node", s.Name, f)
			}
		}
	}
}

func TestPecanPartitionIsPerAppliance(t *testing.T) {
	s, _ := ByName("PECAN")
	d := s.Generate(1, Options{MaxTrain: 5, MaxTest: 5})
	for i, p := range d.Partition {
		if len(p) != 1 {
			t.Fatalf("PECAN end node %d observes %d features, want 1", i, len(p))
		}
	}
}

func TestProject(t *testing.T) {
	x := []float64{10, 20, 30, 40}
	got := Project(x, []int{3, 1})
	if got[0] != 40 || got[1] != 20 {
		t.Fatalf("Project = %v", got)
	}
	if got := Project([]float64{1, 2, 3, 4}, []int{0, 2}); got[1] != 3 {
		t.Fatalf("Project = %v", got)
	}
}

func TestNonHierarchicalHasNoPartition(t *testing.T) {
	s, _ := ByName("MNIST")
	d := s.Generate(1, Options{MaxTrain: 5, MaxTest: 5})
	if d.Partition != nil {
		t.Fatal("MNIST should not have an end-node partition")
	}
}

func TestFullSizesWhenUncapped(t *testing.T) {
	s, _ := ByName("PDP")
	d := s.Generate(1, Options{MaxTrain: 0, MaxTest: 100})
	if len(d.TrainX) != s.TrainSize {
		t.Fatalf("uncapped train size = %d, want %d", len(d.TrainX), s.TrainSize)
	}
}

func TestClassBalanceRoughlyUniform(t *testing.T) {
	s, _ := ByName("PAMAP2")
	d := s.Generate(5, Options{MaxTrain: 5000, MaxTest: 10})
	counts := make([]int, s.Classes)
	for _, y := range d.TrainY {
		counts[y]++
	}
	expect := 5000 / s.Classes
	for c, got := range counts {
		if got < expect*7/10 || got > expect*13/10 {
			t.Fatalf("class %d count %d far from uniform %d", c, got, expect)
		}
	}
}

// Property: Project output length always matches the index list and
// never aliases the input.
func TestQuickProject(t *testing.T) {
	f := func(vals []float64, idxRaw []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		idx := make([]int, len(idxRaw))
		for i, v := range idxRaw {
			idx[i] = int(v) % len(vals)
		}
		out := Project(vals, idx)
		if len(out) != len(idx) {
			return false
		}
		for i, f := range idx {
			if out[i] != vals[f] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
