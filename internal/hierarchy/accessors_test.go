package hierarchy

import (
	"testing"

	"edgehd/internal/netsim"
)

func TestQueryWorkAggregatesSubtree(t *testing.T) {
	sys, _ := buildPDP(t, Config{TotalDim: 1000, Seed: 91, RetrainEpochs: 1}, 20, 10)
	topo := sys.Topology()
	leafMACs, leafOps := sys.QueryWork(topo.EndNodes[0])
	if leafMACs <= 0 {
		t.Fatal("leaf query work has no encoding MACs")
	}
	if leafOps != 0 {
		t.Fatalf("leaf query work has %d projection ops, want 0", leafOps)
	}
	centralMACs, centralOps := sys.QueryWork(topo.Central)
	if centralMACs <= leafMACs {
		t.Fatal("central query must include every leaf's encoding")
	}
	if centralOps <= 0 {
		t.Fatal("central query must include projection ops")
	}
	// The central query encodes all five leaves.
	var sumLeaf int64
	for _, e := range topo.EndNodes {
		m, _ := sys.QueryWork(e)
		sumLeaf += m
	}
	if centralMACs != sumLeaf {
		t.Fatalf("central MACs %d != sum of leaf MACs %d", centralMACs, sumLeaf)
	}
}

func TestAssocOpsScalesWithDim(t *testing.T) {
	sys, _ := buildPDP(t, Config{TotalDim: 1000, Seed: 92, RetrainEpochs: 1}, 20, 10)
	topo := sys.Topology()
	leaf := sys.AssocOps(topo.EndNodes[0])
	central := sys.AssocOps(topo.Central)
	if central <= leaf {
		t.Fatalf("central search (%d ops) should exceed leaf search (%d ops)", central, leaf)
	}
	// k+1 passes over the node's dimensionality.
	if want := int64(sys.classes+1) * int64(sys.NodeDim(topo.Central)); central != want {
		t.Fatalf("central AssocOps = %d, want %d", central, want)
	}
}

func TestNodesListsEveryDevice(t *testing.T) {
	sys, _ := buildPDP(t, Config{TotalDim: 1000, Seed: 93, RetrainEpochs: 1}, 20, 10)
	topo := sys.Topology()
	nodes := sys.Nodes()
	if len(nodes) != topo.Net.NumNodes() {
		t.Fatalf("Nodes() returned %d entries for %d devices", len(nodes), topo.Net.NumNodes())
	}
	leaves := 0
	for _, n := range nodes {
		if n.Dim != sys.NodeDim(n.ID) {
			t.Fatalf("node %d dim mismatch", n.ID)
		}
		if n.Leaf {
			leaves++
		}
		if n.Depth != topo.Net.Depth(n.ID) {
			t.Fatalf("node %d depth mismatch", n.ID)
		}
	}
	if leaves != len(topo.EndNodes) {
		t.Fatalf("Nodes() marks %d leaves, want %d", leaves, len(topo.EndNodes))
	}
}

func TestNegativeFeedbackBroadcast(t *testing.T) {
	topo, err := netsim.Tree(5, 2, netsim.Wired1G())
	if err != nil {
		t.Fatal(err)
	}
	sys, d := buildOn(t, topo, Config{TotalDim: 1000, Seed: 94, RetrainEpochs: 2})
	x := d.TestX[0]
	// Reject whatever the path predicts: broadcast against the entry
	// leaf's own prediction guarantees at least one device accumulates.
	leafPred := sys.PredictAt(topo.EndNodes[0], x)
	n, err := sys.NegativeFeedbackBroadcast(0, x, leafPred)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("broadcast applied at %d devices, want ≥ 1", n)
	}
	if _, err := sys.NegativeFeedbackBroadcast(-1, x, 0); err == nil {
		t.Fatal("negative entry accepted")
	}
	if _, err := sys.NegativeFeedbackBroadcast(0, x, 99); err == nil {
		t.Fatal("out-of-range class accepted")
	}
}

func TestInferCommBytesCompressionConsistency(t *testing.T) {
	// Per-query amortized bytes must be at most one bundle's bytes.
	sys, _ := trainedPDP(t, Config{TotalDim: 2000, Seed: 95, RetrainEpochs: 1, CompressionRate: 25})
	topo := sys.Topology()
	perQuery := sys.InferCommBytes(topo.Central)
	if perQuery <= 0 {
		t.Fatal("no inference bytes at central")
	}
	raw, _ := trainedPDP(t, Config{TotalDim: 2000, Seed: 95, RetrainEpochs: 1, CompressionRate: 1})
	rawBytes := raw.InferCommBytes(raw.Topology().Central)
	if perQuery >= rawBytes {
		t.Fatalf("compressed per-query bytes %d not below raw %d", perQuery, rawBytes)
	}
}

func TestLevelAccuracyEmptyDepth(t *testing.T) {
	sys, d := buildPDP(t, Config{TotalDim: 500, Seed: 96, RetrainEpochs: 1}, 20, 10)
	if acc := sys.LevelAccuracy(99, d.TestX, d.TestY); acc != 0 {
		t.Fatalf("accuracy at nonexistent depth = %v, want 0", acc)
	}
}
