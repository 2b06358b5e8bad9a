package edgehd_test

import (
	"fmt"

	"edgehd"
	"edgehd/internal/encoding"
)

// check stops an example on an unexpected error.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Example_quickstart shows centralized EdgeHD classification on a
// synthetic sensor problem: encode, train, retrain, predict, and read
// the prediction confidence.
func Example_quickstart() {
	const (
		numFeatures = 16
		numClasses  = 3
		perClass    = 80
	)
	// Three synthetic "activities", each a Gaussian cluster in sensor
	// space (accelerometer-style features).
	rng := edgehd.NewRandom(7)
	centers := make([][]float64, numClasses)
	for c := range centers {
		centers[c] = make([]float64, numFeatures)
		for i := range centers[c] {
			centers[c][i] = rng.Norm() * 2
		}
	}
	sample := func(c int) []float64 {
		x := make([]float64, numFeatures)
		for i := range x {
			x[i] = centers[c][i] + 0.5*rng.Norm()
		}
		return x
	}
	var trainX [][]float64
	var trainY []int
	for c := 0; c < numClasses; c++ {
		for s := 0; s < perClass; s++ {
			trainX = append(trainX, sample(c))
			trainY = append(trainY, c)
		}
	}

	// A classifier with hypervector dimension 2000. The encoder maps
	// each 16-feature reading into a ±1 hypervector; training bundles
	// hypervectors per class and then retrains iteratively.
	clf := must(edgehd.NewClassifier(numFeatures, numClasses,
		edgehd.WithDimension(2000), edgehd.WithSeed(1)))
	stats := must(clf.Fit(trainX, trainY, 0))
	fmt.Printf("trained in %d retraining epochs (errors per epoch: %v)\n", stats.Epochs, stats.Errors)

	// Evaluate on fresh samples.
	correct := 0
	const tests = 150
	for i := 0; i < tests; i++ {
		c := i % numClasses
		if clf.Predict(sample(c)) == c {
			correct++
		}
	}
	fmt.Printf("accuracy on %d fresh samples: %.1f%%\n", tests, 100*float64(correct)/tests)

	// Confidence tells you whether to trust a prediction — the signal
	// the hierarchical router uses to decide where inference runs.
	class, conf := clf.PredictConfidence(sample(1))
	fmt.Printf("clean sample      → class %d, confidence %.2f\n", class, conf)
	noise := make([]float64, numFeatures)
	for i := range noise {
		noise[i] = rng.Norm() * 5
	}
	class, conf = clf.PredictConfidence(noise)
	fmt.Printf("random nonsense   → class %d, confidence %.2f (low: escalate or reject)\n", class, conf)
	// Output:
	// trained in 1 retraining epochs (errors per epoch: [0])
	// accuracy on 150 fresh samples: 100.0%
	// clean sample      → class 1, confidence 1.00
	// random nonsense   → class 0, confidence 0.58 (low: escalate or reject)
}

// Example_smarthome is the paper's motivating scenario (§II): a home
// full of heterogeneous appliances jointly recognizing household
// activity. Three sensor hubs (IMU wristband, wall sensors, smart
// meter) each see a different slice of the feature vector; a gateway
// aggregates the hubs' models, and confidence routing decides which
// level answers each query.
func Example_smarthome() {
	// PAMAP2 is the paper's activity-recognition benchmark: 75 features
	// from three sensor devices, five activities.
	spec := must(edgehd.DatasetByName("PAMAP2"))
	d := spec.Generate(11, edgehd.DatasetOptions{MaxTrain: 400, MaxTest: 200})
	fmt.Printf("smart home with %d sensor hubs, %d features total, %d activities\n",
		spec.EndNodes, spec.Features, spec.Classes)

	// Home network: hubs connect to the gateway over 802.11ac WiFi.
	topo := must(edgehd.Tree(spec.EndNodes, 2, edgehd.WiFiAC()))
	sys := must(edgehd.BuildHierarchy(topo, d.Partition, spec.Classes, edgehd.HierarchyConfig{
		TotalDim:      2000,
		RetrainEpochs: 10,
		Seed:          3,
	}))
	for i, dim := range sys.LeafDims() {
		fmt.Printf("  hub %d observes %d features → %d-dimensional hypervectors\n",
			i, len(d.Partition[i]), dim)
	}

	// Distributed training: each hub learns from its own sensors; only
	// models and batch hypervectors cross the WiFi.
	rep := must(sys.Train(d.TrainX, d.TrainY))
	rawBytes := len(d.TrainX) * spec.Features * 4
	fmt.Printf("training moved %d bytes (raw data would be ≥ %d bytes: %.0f%% saved)\n",
		rep.Bytes, rawBytes, 100*(1-float64(rep.Bytes)/float64(rawBytes)))

	fmt.Println("accuracy by hierarchy level:")
	fmt.Printf("  sensor hubs (own features only): %.1f%%\n", 100*sys.LevelAccuracy(topo.NumLevels()-1, d.TestX, d.TestY))
	fmt.Printf("  home gateway:                    %.1f%%\n", 100*sys.LevelAccuracy(1, d.TestX, d.TestY))
	fmt.Printf("  cloud/central:                   %.1f%%\n", 100*sys.LevelAccuracy(0, d.TestX, d.TestY))

	// Confidence-routed inference: easy readings resolve on the hub
	// with zero network traffic; ambiguous ones climb the hierarchy.
	levelCount := map[int]int{}
	correct := 0
	for i, x := range d.TestX {
		res := must(sys.Infer(x, i%spec.EndNodes))
		levelCount[res.Level]++
		if res.Class == d.TestY[i] {
			correct++
		}
	}
	fmt.Printf("routed inference accuracy: %.1f%%\n", 100*float64(correct)/float64(len(d.TestX)))
	names := map[int]string{1: "on-hub", 2: "gateway", 3: "central"}
	for level := 1; level <= 3; level++ {
		if n := levelCount[level]; n > 0 {
			fmt.Printf("  %-8s answered %4.1f%% of queries\n", names[level], 100*float64(n)/float64(len(d.TestX)))
		}
	}
	// Output:
	// smart home with 3 sensor hubs, 75 features total, 5 activities
	//   hub 0 observes 25 features → 667-dimensional hypervectors
	//   hub 1 observes 25 features → 667-dimensional hypervectors
	//   hub 2 observes 25 features → 667-dimensional hypervectors
	// training moved 70032 bytes (raw data would be ≥ 120000 bytes: 42% saved)
	// accuracy by hierarchy level:
	//   sensor hubs (own features only): 85.8%
	//   home gateway:                    87.0%
	//   cloud/central:                   86.5%
	// routed inference accuracy: 87.0%
	//   on-hub   answered 13.0% of queries
	//   gateway  answered 29.0% of queries
	//   central  answered 58.0% of queries
}

// Example_powergrid is the PECAN city-scale scenario of §VI-C: 312
// instrumented appliances, grouped into houses (12 appliances), streets
// (6–7 houses) and one city node, predicting urban power-consumption
// levels. It shows dimension allocation across a deep hierarchy and
// online model updates propagated "every midnight".
func Example_powergrid() {
	spec := must(edgehd.DatasetByName("PECAN"))
	d := spec.Generate(5, edgehd.DatasetOptions{MaxTrain: 200, MaxTest: 40})

	// The city tree: appliances → houses → streets → city.
	topo := must(edgehd.GroupedSizes(spec.EndNodes, []int{12, 7}, edgehd.WiFiN()))
	fmt.Printf("city hierarchy: %d appliances, %d levels, central node %q\n",
		len(topo.EndNodes), topo.NumLevels(), topo.Net.Name(topo.Central))
	for depth, nodes := range topo.Levels {
		fmt.Printf("  depth %d: %d nodes\n", depth, len(nodes))
	}

	sys := must(edgehd.BuildHierarchy(topo, d.Partition, spec.Classes, edgehd.HierarchyConfig{
		TotalDim:      2000,
		RetrainEpochs: 8,
		Seed:          9,
	}))

	// Train offline on half the data (historic smart-meter records).
	half := len(d.TrainX) / 2
	must(sys.Train(d.TrainX[:half], d.TrainY[:half]))
	maxDepth := topo.NumLevels() - 1
	show := func(tag string) {
		fmt.Printf("%s  house %.1f%% | street %.1f%% | city %.1f%%\n", tag,
			100*sys.LevelAccuracy(maxDepth-1, d.TestX, d.TestY),
			100*sys.LevelAccuracy(1, d.TestX, d.TestY),
			100*sys.LevelAccuracy(0, d.TestX, d.TestY))
	}
	show("offline model:        ")

	// The second half arrives live; residents reject wrong predictions
	// (negative feedback only), and every "midnight" the residual
	// hypervectors propagate up the tree.
	online := d.TrainX[half:]
	onlineY := d.TrainY[half:]
	const nights = 4
	for night := 0; night < nights; night++ {
		lo, hi := night*len(online)/nights, (night+1)*len(online)/nights
		feedback := 0
		for i := lo; i < hi; i++ {
			res := must(sys.Infer(online[i], i%len(topo.EndNodes)))
			if res.Class != onlineY[i] {
				must(sys.NegativeFeedbackBroadcast(i%len(topo.EndNodes), online[i], res.Class))
				feedback++
			}
		}
		rep := must(sys.PropagateResiduals())
		fmt.Printf("night %d: %d rejections, residuals propagated in %d bytes\n", night+1, feedback, rep.Bytes)
	}
	show("after online updates: ")
	// Output:
	// city hierarchy: 312 appliances, 4 levels, central node "central"
	//   depth 0: 1 nodes
	//   depth 1: 4 nodes
	//   depth 2: 26 nodes
	//   depth 3: 312 nodes
	// offline model:          house 55.4% | street 66.9% | city 75.0%
	// night 1: 13 rejections, residuals propagated in 13836 bytes
	// night 2: 15 rejections, residuals propagated in 14220 bytes
	// night 3: 9 rejections, residuals propagated in 11532 bytes
	// night 4: 13 rejections, residuals propagated in 19140 bytes
	// after online updates:   house 56.4% | street 67.5% | city 87.5%
}

// Example_onlinefeedback is a close-up of the §IV-D residual machinery
// on a server cluster (PDP power-demand prediction). It shows how
// negative feedback accumulates in residual hypervectors, what one
// propagation costs on a slow link, and how repeated rejections move a
// prediction.
func Example_onlinefeedback() {
	spec := must(edgehd.DatasetByName("PDP"))
	d := spec.Generate(21, edgehd.DatasetOptions{MaxTrain: 500, MaxTest: 200})

	// Five servers report to two rack gateways over Bluetooth (a
	// deliberately slow medium to make transfer costs visible).
	topo := must(edgehd.Tree(spec.EndNodes, 2, edgehd.Bluetooth4()))
	sys := must(edgehd.BuildHierarchy(topo, d.Partition, spec.Classes, edgehd.HierarchyConfig{
		TotalDim:      2000,
		RetrainEpochs: 8,
		Seed:          4,
	}))
	half := len(d.TrainX) / 2
	must(sys.Train(d.TrainX[:half], d.TrainY[:half]))
	before := sys.LevelAccuracy(0, d.TestX, d.TestY)
	fmt.Printf("offline central accuracy: %.1f%%\n", 100*before)

	// Stream the online half. Users only tell us when we're wrong.
	online, onlineY := d.TrainX[half:], d.TrainY[half:]
	rejected, applied := 0, 0
	for i, x := range online {
		res := must(sys.Infer(x, i%spec.EndNodes))
		if res.Class != onlineY[i] {
			applied += must(sys.NegativeFeedbackBroadcast(i%spec.EndNodes, x, res.Class))
			rejected++
		}
	}
	fmt.Printf("online stream: %d/%d predictions rejected; feedback recorded at %d device-residuals\n",
		rejected, len(online), applied)

	// One propagation sweep: every device subtracts its residuals and
	// ships them to its parent. On Bluetooth this is the entire
	// communication cost of the whole online phase.
	rep := must(sys.PropagateResiduals())
	fmt.Printf("propagation: %d bytes, finished in %.3gs over Bluetooth, %.3g J radio energy\n",
		rep.Bytes, rep.CommFinish, rep.CommEnergyJ)
	after := sys.LevelAccuracy(0, d.TestX, d.TestY)
	fmt.Printf("central accuracy after update: %.1f%% (%+.1f%%)\n", 100*after, 100*(after-before))

	// Residual semantics in miniature: repeated rejection of one
	// prediction eventually flips it.
	x := d.TestX[0]
	pred := sys.PredictAt(topo.Central, x)
	fmt.Printf("\nsample 0 predicted as class %d; user rejects it 40 times...\n", pred)
	for i := 0; i < 40; i++ {
		check(sys.NegativeFeedback(topo.Central, x, pred))
	}
	must(sys.PropagateResiduals())
	fmt.Printf("prediction after feedback: class %d\n", sys.PredictAt(topo.Central, x))
	// Output:
	// offline central accuracy: 85.0%
	// online stream: 37/250 predictions rejected; feedback recorded at 69 device-residuals
	// propagation: 28800 bytes, finished in 0.153s over Bluetooth, 0.00864 J radio energy
	// central accuracy after update: 80.5% (-4.5%)
	//
	// sample 0 predicted as class 1; user rejects it 40 times...
	// prediction after feedback: class 0
}

// Example_robustness is the §VI-F failure-injection scenario: the PECAN
// city hierarchy with lossy links. It compares the holographic
// hierarchical encoding against plain concatenation under per-link
// burst loss, where every hypervector crosses several links on its way
// to the city node, and shows what each encoding costs in central
// dimensionality.
func Example_robustness() {
	spec := must(edgehd.DatasetByName("PECAN"))
	d := spec.Generate(31, edgehd.DatasetOptions{MaxTrain: 100, MaxTest: 50})

	build := func(holographic bool) (*edgehd.System, *edgehd.Topology) {
		topo := must(edgehd.GroupedSizes(spec.EndNodes, []int{12, 7}, edgehd.WiFiN()))
		sys := must(edgehd.BuildHierarchy(topo, d.Partition, spec.Classes, edgehd.HierarchyConfig{
			TotalDim:      2000,
			RetrainEpochs: 4,
			Seed:          6,
			Holographic:   edgehd.Holographic(holographic),
		}))
		must(sys.Train(d.TrainX, d.TrainY))
		return sys, topo
	}
	holo, holoTopo := build(true)
	concat, concatTopo := build(false)
	fmt.Printf("central dimensionality: holographic %d, concatenation %d\n",
		holo.NodeDim(holoTopo.Central), concat.NodeDim(concatTopo.Central))

	measure := func(sys *edgehd.System, topo *edgehd.Topology, rate float64, seed uint64) float64 {
		for id := 0; id < topo.Net.NumNodes(); id++ {
			if topo.Net.Parent(edgehd.NodeID(id)) != edgehd.InvalidNode {
				check(topo.Net.SetLossRate(edgehd.NodeID(id), rate))
			}
		}
		r := edgehd.NewRandom(seed)
		correct := 0
		for i, x := range d.TestX {
			if sys.PredictAtCorrupted(topo.Central, x, r) == d.TestY[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(d.TestX))
	}

	fmt.Println("loss/link   holographic   concatenation")
	for _, rate := range []float64{0, 0.5} {
		accH := measure(holo, holoTopo, rate, 100+uint64(rate*10))
		accC := measure(concat, concatTopo, rate, 200+uint64(rate*10))
		fmt.Printf("   %4.1f%%       %5.1f%%         %5.1f%%\n", 100*rate, 100*accH, 100*accC)
	}
	// The holographic projection spreads every sensor over all
	// dimensions, so losses shave a little off everything. Concatenation
	// keeps exact coordinates and tolerates loss better here, but pays
	// for it with a central dimensionality five times larger: memory,
	// bandwidth and compute at every upper node (EXPERIMENTS.md, Fig 12).

	// Output:
	// central dimensionality: holographic 2000, concatenation 9984
	// loss/link   holographic   concatenation
	//     0.0%        84.0%          98.0%
	//    50.0%        36.0%          84.0%
}

// Example_vision runs the §III-A 2D image encoder on a synthetic
// glyph-recognition task. Fractional-power position hypervectors
// (B_x^X ⊙ B_y^Y) give nearby pixels correlated IDs, so the encoding
// preserves spatial structure: translated glyphs stay similar in
// hyperspace, which plain per-pixel random IDs cannot do.
func Example_vision() {
	const (
		side    = 16 // image side length
		classes = 4
	)
	src := edgehd.NewRandom(3)
	// glyph renders one of four shapes (bar, box, cross, diagonal) at an
	// offset, with pixel noise.
	glyph := func(class int, dx, dy int, noise float64) []float64 {
		img := make([]float64, side*side)
		set := func(x, y int) {
			x += dx
			y += dy
			if x >= 0 && x < side && y >= 0 && y < side {
				img[y*side+x] = 1
			}
		}
		switch class {
		case 0: // horizontal bar
			for x := 3; x < 13; x++ {
				set(x, 7)
				set(x, 8)
			}
		case 1: // box outline
			for i := 4; i < 12; i++ {
				set(i, 4)
				set(i, 11)
				set(4, i)
				set(11, i)
			}
		case 2: // cross
			for i := 3; i < 13; i++ {
				set(i, 8)
				set(8, i)
			}
		case 3: // diagonal
			for i := 2; i < 14; i++ {
				set(i, i)
				set(i, i-1)
			}
		}
		for i := range img {
			if src.Float64() < noise {
				img[i] = 1 - img[i]
			}
		}
		return img
	}

	enc := must(encoding.NewImage2D(side, side, 1000, 11, 2))
	model := must(edgehd.NewModel(enc.Dim(), classes))

	// Train on glyphs jittered by up to ±2 pixels; generalization to
	// larger unseen shifts decays with the position kernel, by design.
	var samples []edgehd.Sample
	for c := 0; c < classes; c++ {
		for s := 0; s < 40; s++ {
			hv := enc.Encode(glyph(c, src.Intn(5)-2, src.Intn(5)-2, 0.02))
			model.Add(c, hv)
			samples = append(samples, edgehd.Sample{HV: hv, Label: c})
		}
	}
	stats := model.Retrain(samples, 10)
	fmt.Printf("trained on %d jittered glyphs (%d retraining epochs)\n", len(samples), stats.Epochs)

	// Evaluate on fresh jitters, including shifts never seen in training.
	for _, shift := range []int{0, 1, 3} {
		correct, total := 0, 0
		for c := 0; c < classes; c++ {
			for s := 0; s < 25; s++ {
				if model.Predict(enc.Encode(glyph(c, shift, shift, 0.02))) == c {
					correct++
				}
				total++
			}
		}
		fmt.Printf("shift (%d,%d): accuracy %.1f%%\n", shift, shift, 100*float64(correct)/float64(total))
	}

	// Show the spatial kernel: position IDs decorrelate smoothly with
	// distance (the Gaussian kernel of §III-A).
	fmt.Println("\nposition-ID similarity vs pixel distance (length scale 2):")
	for _, d := range []int{0, 1, 2, 4, 8} {
		fmt.Printf("  Δ=%d px → %.3f\n", d, enc.PositionSimilarity(4, 8, 4+d, 8))
	}
	// Output:
	// trained on 160 jittered glyphs (5 retraining epochs)
	// shift (0,0): accuracy 100.0%
	// shift (1,1): accuracy 98.0%
	// shift (3,3): accuracy 18.0%
	//
	// position-ID similarity vs pixel distance (length scale 2):
	//   Δ=0 px → 1.000
	//   Δ=1 px → 0.879
	//   Δ=2 px → 0.593
	//   Δ=4 px → 0.101
	//   Δ=8 px → 0.030
}
