package netsim

import (
	"math"
	"strings"
	"testing"
)

// pair builds the two-node network most edge-case tables need.
func pair(t *testing.T) (*Network, NodeID, NodeID) {
	t.Helper()
	n := New()
	root := n.AddNode("root")
	leaf := n.AddNode("leaf")
	if err := n.Connect(leaf, root, Wired1G()); err != nil {
		t.Fatal(err)
	}
	return n, root, leaf
}

// uplink returns the child's uplink state, which the fault knobs write.
func uplink(t *testing.T, n *Network, child NodeID) *link {
	t.Helper()
	li, err := n.uplinkIndex(child)
	if err != nil {
		t.Fatal(err)
	}
	return &n.links[li]
}

func TestSetLossRateEdgeCases(t *testing.T) {
	n, root, leaf := pair(t)
	cases := []struct {
		name string
		node NodeID
		rate float64
		ok   bool
	}{
		{"valid", leaf, 0.3, true},
		{"zero", leaf, 0, true},
		{"one", leaf, 1, true},
		{"negative rate", leaf, -0.1, false},
		{"rate above one", leaf, 1.5, false},
		{"root has no uplink", root, 0.3, false},
		{"unknown node", NodeID(99), 0.3, false},
		{"negative node", NodeID(-1), 0.3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := n.SetLossRate(tc.node, tc.rate)
			if tc.ok && err != nil {
				t.Fatalf("SetLossRate(%d, %v) = %v, want nil", tc.node, tc.rate, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("SetLossRate(%d, %v) accepted, want error", tc.node, tc.rate)
			}
		})
	}
	// Lookups on hostile IDs must not panic and must report the zero value.
	if got := n.LossRateAt(NodeID(99), 5); got != 0 {
		t.Fatalf("LossRateAt(unknown) = %v", got)
	}
	if got := n.LossRateAt(NodeID(-1), 5); got != 0 {
		t.Fatalf("LossRateAt(negative) = %v", got)
	}
}

func TestScheduleLossEdgeCases(t *testing.T) {
	n, root, leaf := pair(t)
	cases := []struct {
		name string
		node NodeID
		w    Window
		ok   bool
	}{
		{"valid", leaf, Window{From: 10, To: 20, Value: 0.5}, true},
		{"full partition", leaf, Window{From: 0, To: 1, Value: 1}, true},
		{"negative rate", leaf, Window{From: 0, To: 1, Value: -0.1}, false},
		{"rate above one", leaf, Window{From: 0, To: 1, Value: 1.5}, false},
		{"empty window", leaf, Window{From: 5, To: 5, Value: 0.5}, false},
		{"inverted window", leaf, Window{From: 9, To: 3, Value: 0.5}, false},
		{"root has no uplink", root, Window{From: 0, To: 1, Value: 0.5}, false},
		{"unknown node", NodeID(42), Window{From: 0, To: 1, Value: 0.5}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := n.ScheduleLoss(tc.node, tc.w)
			if tc.ok && err != nil {
				t.Fatalf("ScheduleLoss = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("ScheduleLoss accepted, want error")
			}
		})
	}
}

func TestLossRateAtWindows(t *testing.T) {
	n, _, leaf := pair(t)
	if err := n.SetLossRate(leaf, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := n.ScheduleLoss(leaf, Window{From: 10, To: 20, Value: 0.8}); err != nil {
		t.Fatal(err)
	}
	// A later schedule overlapping the first wins inside the overlap.
	if err := n.ScheduleLoss(leaf, Window{From: 15, To: 18, Value: 1}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		t    float64
		want float64
	}{
		{0, 0.1},   // before any window: static rate
		{10, 0.8},  // window start is inclusive
		{12, 0.8},  // inside first window
		{15, 1},    // overlap: last-added wins
		{17.9, 1},  //
		{18, 0.8},  // second window ends (half-open)
		{20, 0.1},  // first window ends (half-open)
		{1e9, 0.1}, // far future: static again
		{-1, 0.1},  // before time zero
	} {
		if got := n.LossRateAt(leaf, tc.t); got != tc.want {
			t.Fatalf("LossRateAt(t=%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	// The static knob is unaffected by schedules.
	if got := uplink(t, n, leaf).lossRate; got != 0.1 {
		t.Fatalf("static loss rate = %v, want 0.1", got)
	}
}

func TestScheduleBandwidthEdgeCasesAndTiming(t *testing.T) {
	n, root, leaf := pair(t)
	for _, tc := range []struct {
		name string
		node NodeID
		dir  Direction
		w    Window
	}{
		{"zero factor", leaf, DirUp, Window{From: 0, To: 1, Value: 0}},
		{"negative factor", leaf, DirUp, Window{From: 0, To: 1, Value: -2}},
		{"empty window", leaf, DirUp, Window{From: 3, To: 3, Value: 0.5}},
		{"unknown direction", leaf, Direction(7), Window{From: 0, To: 1, Value: 0.5}},
		{"root has no uplink", root, DirUp, Window{From: 0, To: 1, Value: 0.5}},
		{"unknown node", NodeID(9), DirUp, Window{From: 0, To: 1, Value: 0.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := n.ScheduleBandwidth(tc.node, tc.dir, tc.w); err == nil {
				t.Fatal("ScheduleBandwidth accepted, want error")
			}
		})
	}

	m := Wired1G()
	ser := m.TransferSeconds(1000)
	lat := m.Latency.Seconds()
	// Halve the uplink bandwidth over a window; the downlink keeps its
	// nominal rate — an asymmetric link.
	if err := n.ScheduleBandwidth(leaf, DirUp, Window{From: 100, To: 200, Value: 0.5}); err != nil {
		t.Fatal(err)
	}
	up, err := n.Send(leaf, root, 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if want := 100 + 2*ser + lat; math.Abs(up-want) > 1e-9 {
		t.Fatalf("degraded uplink arrival = %v, want %v", up, want)
	}
	down, err := n.Send(root, leaf, 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if want := 100 + ser + lat; math.Abs(down-want) > 1e-9 {
		t.Fatalf("downlink arrival = %v, want %v (asymmetry lost)", down, want)
	}
	// Outside the window the uplink is nominal again.
	up2, err := n.Send(leaf, root, 1000, 300)
	if err != nil {
		t.Fatal(err)
	}
	if want := 300 + ser + lat; math.Abs(up2-want) > 1e-9 {
		t.Fatalf("post-window uplink arrival = %v, want %v", up2, want)
	}
}

func TestDelayFactorStragglers(t *testing.T) {
	n, root, leaf := pair(t)
	for _, bad := range []float64{0, -1} {
		if err := n.SetDelayFactor(leaf, bad); err == nil {
			t.Fatalf("SetDelayFactor(%v) accepted, want error", bad)
		}
	}
	if err := n.SetDelayFactor(NodeID(77), 2); err == nil {
		t.Fatal("SetDelayFactor(unknown) accepted, want error")
	}
	if got := uplink(t, n, leaf).delayFactor; got != 0 {
		t.Fatalf("default delay factor = %v, want 0 (unset)", got)
	}
	if err := n.SetDelayFactor(leaf, 3); err != nil {
		t.Fatal(err)
	}
	if got := uplink(t, n, leaf).delayFactor; got != 3 {
		t.Fatalf("delay factor = %v, want 3", got)
	}
	m := Wired1G()
	arr, err := n.Send(leaf, root, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * (m.TransferSeconds(1000) + m.Latency.Seconds()); math.Abs(arr-want) > 1e-9 {
		t.Fatalf("straggler arrival = %v, want %v", arr, want)
	}
}

func TestDownNodesAndPathUpOnPartitionedTopology(t *testing.T) {
	topo, err := Tree(5, 2, Wired1G())
	if err != nil {
		t.Fatal(err)
	}
	n := topo.Net
	leaf := topo.EndNodes[0]
	gw := n.Parent(leaf)
	if gw == topo.Central {
		t.Fatalf("tree(5,2) leaf 0 should sit under a gateway")
	}
	if err := n.SetDown(NodeID(99), true); err == nil {
		t.Fatal("SetDown(unknown) accepted, want error")
	}
	if n.IsDown(NodeID(-3)) || n.IsDown(NodeID(99)) {
		t.Fatal("IsDown(hostile id) = true, want false")
	}
	if err := n.SetDown(gw, true); err != nil {
		t.Fatal(err)
	}

	// The topology is intact while the node is down: PathUp still
	// resolves through it (routing state is not membership state).
	path, err := n.PathUp(leaf, topo.Central)
	if err != nil {
		t.Fatalf("PathUp through down node: %v", err)
	}
	if len(path) != 3 || path[0] != leaf || path[1] != gw || path[2] != topo.Central {
		t.Fatalf("PathUp = %v", path)
	}

	// But no traffic crosses it: endpoint down, intermediate down.
	if _, err := n.Send(gw, topo.Central, 10, 0); err == nil || !strings.Contains(err.Error(), "down") {
		t.Fatalf("Send from down node: err = %v", err)
	}
	if _, err := n.Send(leaf, topo.Central, 10, 0); err == nil || !strings.Contains(err.Error(), "down") {
		t.Fatalf("Send across down node: err = %v", err)
	}
	if _, err := n.Send(topo.Central, leaf, 10, 0); err == nil || !strings.Contains(err.Error(), "down") {
		t.Fatalf("downward Send across down node: err = %v", err)
	}

	// Nodes outside the partitioned subtree are unaffected.
	other := topo.EndNodes[len(topo.EndNodes)-1]
	if up, _ := n.PathUp(other, topo.Central); up == nil {
		t.Fatal("unaffected leaf lost its path")
	}
	if _, err := n.Send(other, topo.Central, 10, 0); err != nil {
		t.Fatalf("unaffected leaf cannot send: %v", err)
	}

	// Rejoin restores traffic.
	if err := n.SetDown(gw, false); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(leaf, topo.Central, 10, 0); err != nil {
		t.Fatalf("send after rejoin: %v", err)
	}
}

// TestResetClearsFaultState is the regression test for the Reset bug:
// loss rates (and now schedules, delay factors, and down flags) must
// not leak across Reset into the next experiment.
func TestResetClearsFaultState(t *testing.T) {
	n, root, leaf := pair(t)
	if err := n.SetLossRate(leaf, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := n.ScheduleLoss(leaf, Window{From: 0, To: 100, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := n.ScheduleBandwidth(leaf, DirUp, Window{From: 0, To: 100, Value: 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := n.SetDelayFactor(leaf, 10); err != nil {
		t.Fatal(err)
	}
	if err := n.SetDown(root, true); err != nil {
		t.Fatal(err)
	}
	_, _ = n.Send(leaf, root, 1000, 0) // fails (root down); irrelevant here

	n.Reset()

	if got := uplink(t, n, leaf).lossRate; got != 0 {
		t.Fatalf("Reset kept static loss rate %v", got)
	}
	if got := n.LossRateAt(leaf, 50); got != 0 {
		t.Fatalf("Reset kept loss schedule (rate %v at t=50)", got)
	}
	if got := uplink(t, n, leaf).delayFactor; got != 0 {
		t.Fatalf("Reset kept delay factor %v", got)
	}
	if n.IsDown(root) {
		t.Fatal("Reset kept down flag")
	}
	if st := n.Stats(); st.TotalBytes != 0 {
		t.Fatalf("Reset kept stats: %+v", st)
	}
	m := Wired1G()
	arr, err := n.Send(leaf, root, 1000, 0)
	if err != nil {
		t.Fatalf("send after Reset: %v", err)
	}
	if want := m.TransferSeconds(1000) + m.Latency.Seconds(); math.Abs(arr-want) > 1e-9 {
		t.Fatalf("post-Reset arrival = %v, want nominal %v (bandwidth window survived?)", arr, want)
	}
}
