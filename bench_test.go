package edgehd

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (run the full set with `go test -bench=. -benchmem`, or a
// single experiment with e.g. `-bench=Fig10`). Each benchmark executes
// a reduced-scale but complete run of the corresponding harness per
// iteration and reports the headline metric through b.ReportMetric;
// cmd/paper prints the full tables. Kernel, hierarchy and serving
// timings live in the benchmark harness (`go run ./bench`).

import (
	"testing"

	"edgehd/internal/experiments"
)

// benchOpts is the reduced experiment scale used per benchmark
// iteration; shapes reproduce at this scale, absolute numbers grow with
// cmd/paper -full.
func benchOpts() experiments.Options {
	return experiments.Options{MaxTrain: 250, MaxTest: 120, Dim: 1500, RetrainEpochs: 5, Seed: 42}
}

func BenchmarkFig7AccuracyComparison(b *testing.B) {
	opts := benchOpts()
	opts.MaxTrain, opts.MaxTest, opts.Dim = 120, 60, 1000
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Gap(), "edgehd-vs-baselinehd-%")
	}
}

func BenchmarkTable2HierarchyAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		mean := 0.0
		for _, a := range r.Central {
			mean += a / float64(len(r.Central))
		}
		b.ReportMetric(100*mean, "central-accuracy-%")
	}
}

func BenchmarkFig8PecanOnline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := r.Checkpoints[len(r.Checkpoints)-1]
		b.ReportMetric(100*last.City, "city-accuracy-%")
	}
}

func BenchmarkFig9OnlineSteps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9b(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		gain := 0.0
		for _, series := range r.Accuracy {
			gain += (series[len(series)-1] - series[0]) / float64(len(r.Accuracy))
		}
		b.ReportMetric(100*gain, "online-gain-%")
	}
}

func BenchmarkFig10Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		_, energy, _, _ := r.Speedups("HD-GPU")
		b.ReportMetric(energy, "train-energy-x")
		ctrain, _ := r.CommReduction()
		b.ReportMetric(100*ctrain, "comm-reduction-%")
	}
}

func BenchmarkFig11Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: mean level-1 speedup on the slowest medium.
		b.ReportMetric(r.Speedup[len(r.Speedup)-1][0], "bt4-level1-speedup-x")
	}
}

func BenchmarkFig12Robustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.MaxDrop("EdgeHD-holographic"), "holo-maxdrop-%")
	}
}

func BenchmarkFig13Depth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		first, last := r.Entries[0], r.Entries[len(r.Entries)-1]
		b.ReportMetric(last.SpeedupWiFi/first.SpeedupWiFi, "wifi-speedup-growth-x")
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationBatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBatchSize(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCompression(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDimension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDimension(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationThreshold(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSparsity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSparsity(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFanIn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFanIn(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}
