package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMediumsOrdering(t *testing.T) {
	ms := Mediums()
	if len(ms) != 5 {
		t.Fatalf("got %d mediums, want 5", len(ms))
	}
	// Bandwidths must be strictly decreasing in the Fig 11 order.
	for i := 1; i < len(ms); i++ {
		if ms[i].BandwidthBps >= ms[i-1].BandwidthBps {
			t.Fatalf("mediums not ordered by bandwidth: %s >= %s", ms[i].Name, ms[i-1].Name)
		}
	}
}

func TestTransferSeconds(t *testing.T) {
	m := Wired1G()
	// 1 Gbps: 125 MB/s, so 125 MB should take 1 s.
	if got := m.TransferSeconds(125_000_000); math.Abs(got-1) > 1e-9 {
		t.Fatalf("TransferSeconds = %v, want 1", got)
	}
}

func TestConnectValidation(t *testing.T) {
	n := New()
	a := n.AddNode("a")
	b := n.AddNode("b")
	if err := n.Connect(a, a, Wired1G()); err == nil {
		t.Fatal("self-connection accepted")
	}
	if err := n.Connect(a, b, Wired1G()); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(a, b, Wired1G()); err == nil {
		t.Fatal("double parent accepted")
	}
	if err := n.Connect(b, a, Wired1G()); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestPathUpAndDepth(t *testing.T) {
	n := New()
	root := n.AddNode("root")
	mid := n.AddNode("mid")
	leaf := n.AddNode("leaf")
	if err := n.Connect(mid, root, Wired1G()); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(leaf, mid, Wired1G()); err != nil {
		t.Fatal(err)
	}
	path, err := n.PathUp(leaf, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[0] != leaf || path[2] != root {
		t.Fatalf("path = %v", path)
	}
	if n.Depth(leaf) != 2 || n.Depth(root) != 0 {
		t.Fatalf("depths: leaf=%d root=%d", n.Depth(leaf), n.Depth(root))
	}
	if n.Parent(root) != InvalidNode {
		t.Fatal("root has a parent")
	}
	other := n.AddNode("other")
	if _, err := n.PathUp(leaf, other); err == nil {
		t.Fatal("PathUp accepted a non-ancestor")
	}
}

func TestSendUpAccumulatesHops(t *testing.T) {
	n := New()
	root := n.AddNode("root")
	mid := n.AddNode("mid")
	leaf := n.AddNode("leaf")
	m := Wired1G()
	_ = n.Connect(mid, root, m)
	_ = n.Connect(leaf, mid, m)
	const bytes = 125_000 // 1 ms serialization at 1 Gbps
	arrival, err := n.Send(leaf, root, bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 2*m.TransferSeconds(bytes) + 2*m.Latency.Seconds()
	if math.Abs(arrival-want) > 1e-9 {
		t.Fatalf("arrival = %v, want %v", arrival, want)
	}
	st := n.Stats()
	if st.TotalBytes != 2*bytes {
		t.Fatalf("TotalBytes = %d, want %d (two hops)", st.TotalBytes, 2*bytes)
	}
}

func TestSendDown(t *testing.T) {
	n := New()
	root := n.AddNode("root")
	leaf := n.AddNode("leaf")
	m := WiFiAC()
	_ = n.Connect(leaf, root, m)
	arrival, err := n.Send(root, leaf, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := 5 + m.TransferSeconds(1000) + m.Latency.Seconds()
	if math.Abs(arrival-want) > 1e-9 {
		t.Fatalf("down arrival = %v, want %v", arrival, want)
	}
}

func TestSendToSelfIsFree(t *testing.T) {
	n := New()
	a := n.AddNode("a")
	arrival, err := n.Send(a, a, 1<<20, 3)
	if err != nil || arrival != 3 {
		t.Fatalf("self send = %v, %v", arrival, err)
	}
	if n.Stats().TotalBytes != 0 {
		t.Fatal("self send consumed bandwidth")
	}
}

func TestSendNoPath(t *testing.T) {
	n := New()
	root := n.AddNode("root")
	a := n.AddNode("a")
	b := n.AddNode("b")
	_ = n.Connect(a, root, Wired1G())
	_ = n.Connect(b, root, Wired1G())
	if _, err := n.Send(a, b, 10, 0); err == nil {
		t.Fatal("sibling send should fail (no tree path)")
	}
}

func TestLinkSerialization(t *testing.T) {
	// Two transfers on the same uplink must queue: the second starts
	// after the first finishes serializing.
	n := New()
	root := n.AddNode("root")
	leaf := n.AddNode("leaf")
	m := Bluetooth4() // 1 Mbps: 1250 bytes = 10 ms
	_ = n.Connect(leaf, root, m)
	const bytes = 1250
	t1, _ := n.Send(leaf, root, bytes, 0)
	t2, _ := n.Send(leaf, root, bytes, 0)
	ser := m.TransferSeconds(bytes)
	lat := m.Latency.Seconds()
	if math.Abs(t1-(ser+lat)) > 1e-9 {
		t.Fatalf("t1 = %v", t1)
	}
	if math.Abs(t2-(2*ser+lat)) > 1e-9 {
		t.Fatalf("t2 = %v, want %v (queued)", t2, 2*ser+lat)
	}
}

func TestUpDownIndependentDirections(t *testing.T) {
	// Half-duplex per direction: an upload should not delay a download.
	n := New()
	root := n.AddNode("root")
	leaf := n.AddNode("leaf")
	m := Bluetooth4()
	_ = n.Connect(leaf, root, m)
	up, _ := n.Send(leaf, root, 1250, 0)
	down, _ := n.Send(root, leaf, 1250, 0)
	if math.Abs(up-down) > 1e-9 {
		t.Fatalf("directions interfered: up=%v down=%v", up, down)
	}
}

func TestStatsAndReset(t *testing.T) {
	n := New()
	root := n.AddNode("root")
	leaf := n.AddNode("leaf")
	m := Wired1G()
	_ = n.Connect(leaf, root, m)
	_, _ = n.Send(leaf, root, 1000, 0)
	st := n.Stats()
	if st.TotalBytes != 1000 {
		t.Fatalf("TotalBytes = %d", st.TotalBytes)
	}
	if st.EnergyJ <= 0 || st.BusySeconds <= 0 {
		t.Fatalf("stats not accumulated: %+v", st)
	}
	n.Reset()
	if st := n.Stats(); st.TotalBytes != 0 || st.EnergyJ != 0 {
		t.Fatalf("Reset did not clear stats: %+v", st)
	}
	// After reset the link is free again.
	arr, _ := n.Send(leaf, root, 1000, 0)
	want := m.TransferSeconds(1000) + m.Latency.Seconds()
	if math.Abs(arr-want) > 1e-9 {
		t.Fatalf("post-reset arrival = %v, want %v", arr, want)
	}
}

func TestLossRate(t *testing.T) {
	n := New()
	root := n.AddNode("root")
	leaf := n.AddNode("leaf")
	_ = n.Connect(leaf, root, Wired1G())
	if err := n.SetLossRate(leaf, 0.3); err != nil {
		t.Fatal(err)
	}
	if got := uplink(t, n, leaf).lossRate; got != 0.3 {
		t.Fatalf("loss rate = %v", got)
	}
	if err := n.SetLossRate(root, 0.3); err == nil {
		t.Fatal("SetLossRate on root (no uplink) accepted")
	}
	if err := n.SetLossRate(leaf, 1.5); err == nil {
		t.Fatal("out-of-range loss rate accepted")
	}
}

func TestStarTopology(t *testing.T) {
	topo, err := Star(5, Wired1G())
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.EndNodes) != 5 {
		t.Fatalf("end nodes = %d", len(topo.EndNodes))
	}
	if topo.NumLevels() != 2 {
		t.Fatalf("levels = %d", topo.NumLevels())
	}
	for _, e := range topo.EndNodes {
		if topo.Net.Parent(e) != topo.Central {
			t.Fatal("end node not directly under central")
		}
	}
	if _, err := Star(0, Wired1G()); err == nil {
		t.Fatal("Star(0) accepted")
	}
}

func TestTreeTopologyPDPExample(t *testing.T) {
	// §VI-A's example: five end nodes, group size two → two gateways,
	// one leftover end node attached directly to the central node.
	topo, err := Tree(5, 2, Wired1G())
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.EndNodes) != 5 {
		t.Fatalf("end nodes = %d", len(topo.EndNodes))
	}
	if topo.NumLevels() != 3 {
		t.Fatalf("levels = %d", topo.NumLevels())
	}
	gateways := 0
	directEnds := 0
	for _, c := range topo.Net.Children(topo.Central) {
		if len(topo.Net.Children(c)) > 0 {
			gateways++
		} else {
			directEnds++
		}
	}
	if gateways != 2 || directEnds != 1 {
		t.Fatalf("gateways=%d directEnds=%d, want 2/1", gateways, directEnds)
	}
}

func TestTreeNoRemainder(t *testing.T) {
	topo, err := Tree(4, 2, Wired1G())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Net.Children(topo.Central)); got != 2 {
		t.Fatalf("central children = %d, want 2 gateways", got)
	}
}

func TestGroupedDepths(t *testing.T) {
	for _, levels := range []int{3, 4, 5, 6, 7} {
		topo, err := Grouped(312, levels, Wired1G())
		if err != nil {
			t.Fatal(err)
		}
		if got := topo.NumLevels(); got != levels {
			t.Fatalf("requested %d levels, built %d", levels, got)
		}
		if len(topo.EndNodes) != 312 {
			t.Fatalf("end nodes = %d", len(topo.EndNodes))
		}
		// Every end node must reach the central node.
		for _, e := range topo.EndNodes {
			if _, err := topo.Net.PathUp(e, topo.Central); err != nil {
				t.Fatal("end node disconnected from central")
			}
		}
		// Depth of every leaf must be at most levels-1.
		for _, e := range topo.EndNodes {
			if d := topo.Net.Depth(e); d > levels-1 {
				t.Fatalf("leaf depth %d exceeds %d", d, levels-1)
			}
		}
	}
}

func TestGroupedValidation(t *testing.T) {
	if _, err := Grouped(10, 1, Wired1G()); err == nil {
		t.Fatal("levels=1 accepted")
	}
	if _, err := Grouped(0, 3, Wired1G()); err == nil {
		t.Fatal("zero end nodes accepted")
	}
}

func TestLeavesAndChildren(t *testing.T) {
	topo, _ := Tree(4, 2, Wired1G())
	leaves := 0
	for id := 0; id < topo.Net.NumNodes(); id++ {
		if len(topo.Net.Children(NodeID(id))) == 0 {
			leaves++
		}
	}
	if leaves != 4 {
		t.Fatalf("leaves = %d", leaves)
	}
}

// Property: arrival time is monotone in byte count and never before
// departure plus latency.
func TestQuickSendMonotone(t *testing.T) {
	f := func(b1Raw, b2Raw uint16) bool {
		b1, b2 := int(b1Raw)+1, int(b2Raw)+1
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		mkNet := func() (*Network, NodeID, NodeID) {
			n := New()
			root := n.AddNode("root")
			leaf := n.AddNode("leaf")
			_ = n.Connect(leaf, root, WiFiN())
			return n, leaf, root
		}
		nA, leafA, rootA := mkNet()
		tSmall, _ := nA.Send(leafA, rootA, b1, 0)
		nB, leafB, rootB := mkNet()
		tBig, _ := nB.Send(leafB, rootB, b2, 0)
		return tSmall <= tBig && tSmall >= WiFiN().Latency.Seconds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGroupedSizesPecanShape(t *testing.T) {
	// PECAN's city tree: 312 appliances → 26 houses → 4 streets → city.
	topo, err := GroupedSizes(312, []int{12, 7}, Wired1G())
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumLevels() != 4 {
		t.Fatalf("levels = %d, want 4", topo.NumLevels())
	}
	if len(topo.EndNodes) != 312 {
		t.Fatalf("end nodes = %d", len(topo.EndNodes))
	}
	if houses := len(topo.Levels[2]); houses != 26 {
		t.Fatalf("houses = %d, want 26", houses)
	}
	if streets := len(topo.Levels[1]); streets != 4 {
		t.Fatalf("streets = %d, want 4", streets)
	}
	for _, e := range topo.EndNodes {
		if _, err := topo.Net.PathUp(e, topo.Central); err != nil {
			t.Fatal("appliance not connected to the city node")
		}
		if d := topo.Net.Depth(e); d != 3 {
			t.Fatalf("appliance depth = %d, want 3", d)
		}
	}
}

func TestGroupedSizesValidation(t *testing.T) {
	if _, err := GroupedSizes(0, []int{2}, Wired1G()); err == nil {
		t.Fatal("zero end nodes accepted")
	}
	if _, err := GroupedSizes(10, []int{0}, Wired1G()); err == nil {
		t.Fatal("zero group size accepted")
	}
}

func TestGroupedSizesNoIntermediateLevels(t *testing.T) {
	// Empty size list degenerates to a star.
	topo, err := GroupedSizes(4, nil, Wired1G())
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumLevels() != 2 {
		t.Fatalf("levels = %d, want 2", topo.NumLevels())
	}
	for _, e := range topo.EndNodes {
		if topo.Net.Parent(e) != topo.Central {
			t.Fatal("end node not directly under central")
		}
	}
}
