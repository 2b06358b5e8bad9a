// Package edgehd is a hierarchy-aware, brain-inspired learning library
// for Internet-of-Things systems, reproducing "Hierarchical, Distributed
// and Brain-Inspired Learning for Internet of Things Systems"
// (ICDCS 2023).
//
// EdgeHD uses hyperdimensional (HD) computing — classification over
// high-dimensional ±1 hypervectors — to let heterogeneous IoT devices
// learn locally and aggregate *models* instead of raw data through a
// device hierarchy:
//
//   - End nodes encode their own sensors' features with a non-linear
//     RBF-kernel encoder and train partial class models by bundling.
//   - Gateway and central nodes aggregate child models with a
//     holographic hierarchical encoding (concatenation + random ternary
//     projection) and refine them on compact batch hypervectors.
//   - Inference runs at whichever level first clears a confidence
//     threshold; escalated queries travel compressed (many hypervectors
//     bound into one transfer).
//   - Online learning folds negative user feedback into residual
//     hypervectors that propagate up the tree on demand.
//
// # Quick start
//
// Centralized classification needs only a Classifier:
//
//	clf := edgehd.NewClassifier(numFeatures, numClasses, edgehd.WithDimension(4000))
//	clf.Fit(trainX, trainY, 0) // 0 = default retraining epochs
//	label := clf.Predict(sample)
//
// A distributed deployment builds a topology and a System:
//
//	topo, _ := edgehd.Tree(numEndNodes, 2, edgehd.Wired1G())
//	sys, _ := edgehd.BuildHierarchy(topo, featurePartition, numClasses, edgehd.HierarchyConfig{})
//	sys.Train(trainX, trainY)
//	res, _ := sys.Infer(sample, entryNode)
//
// See the Example functions for runnable end-to-end scenarios, and
// cmd/paper for the harness that regenerates every table and figure of
// the paper's evaluation.
package edgehd
