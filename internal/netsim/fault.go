package netsim

import "fmt"

// Fault-injection state. The scenario engine (internal/scenario) scripts
// adversarial conditions — bursty loss, partitions, stragglers, flapping
// bandwidth, node churn — against a virtual clock; this file holds the
// per-link and per-node knobs those scripts turn. All of it is plain
// deterministic state: the simulator itself never draws randomness, it
// only reports effective rates and stretches transfer times. Reset
// clears every knob along with the accounting, so a reused Network
// always starts from a clean, fault-free baseline.

// Direction selects one half-duplex side of a link.
type Direction int

const (
	// DirUp is the child→parent direction.
	DirUp Direction = dirUp
	// DirDown is the parent→child direction.
	DirDown Direction = dirDown
)

// Window is a half-open interval [From, To) on the simulation clock
// carrying a scheduled value: a per-bit loss rate for ScheduleLoss, a
// bandwidth multiplier for ScheduleBandwidth. Overlapping windows are
// resolved last-added-wins.
type Window struct {
	From, To float64
	Value    float64
}

// uplinkIndex bounds-checks child and resolves its uplink's index into
// n.links, so fault setters cannot panic on hostile node IDs.
func (n *Network) uplinkIndex(child NodeID) (int, error) {
	if child < 0 || int(child) >= len(n.uplink) {
		return 0, fmt.Errorf("netsim: unknown node %d", child)
	}
	if n.uplink[child] < 0 {
		return 0, fmt.Errorf("netsim: node %d has no uplink", child)
	}
	return n.uplink[child], nil
}

// ScheduleLoss adds a time-windowed per-bit corruption rate to the
// child's uplink. Inside [From, To) the window's rate overrides the
// static SetLossRate value; outside every window the static rate
// applies. Schedules replace the single static knob for scripting
// bursty loss and full partitions (rate 1) that clear on their own.
func (n *Network) ScheduleLoss(child NodeID, w Window) error {
	li, err := n.uplinkIndex(child)
	if err != nil {
		return err
	}
	if w.Value < 0 || w.Value > 1 {
		return fmt.Errorf("netsim: scheduled loss rate %v out of [0,1]", w.Value)
	}
	if w.To <= w.From {
		return fmt.Errorf("netsim: loss window [%v,%v) is empty", w.From, w.To)
	}
	n.links[li].lossSched = append(n.links[li].lossSched, w)
	n.log.Info("uplink loss window scheduled",
		"node", n.names[child], "from", w.From, "to", w.To, "loss_rate", w.Value)
	return nil
}

// LossRateAt returns the per-bit corruption probability on the child's
// uplink at simulation time t: the most recently scheduled window
// covering t, else the static rate. Nodes without an uplink (or out of
// range) report 0.
func (n *Network) LossRateAt(child NodeID, t float64) float64 {
	li, err := n.uplinkIndex(child)
	if err != nil {
		return 0
	}
	l := &n.links[li]
	rate := l.lossRate
	for _, w := range l.lossSched {
		if t >= w.From && t < w.To {
			rate = w.Value
		}
	}
	return rate
}

// ScheduleBandwidth adds a time-windowed bandwidth multiplier to one
// direction of the child's uplink: inside [From, To) the link transfers
// at Value × its medium bandwidth. Values below 1 model congestion or
// degraded radio; scheduling different directions (or siblings)
// differently yields asymmetric links. The factor is sampled once per
// hop at transmission start.
func (n *Network) ScheduleBandwidth(child NodeID, dir Direction, w Window) error {
	li, err := n.uplinkIndex(child)
	if err != nil {
		return err
	}
	if dir != DirUp && dir != DirDown {
		return fmt.Errorf("netsim: unknown direction %d", dir)
	}
	if w.Value <= 0 {
		return fmt.Errorf("netsim: bandwidth factor %v must be positive", w.Value)
	}
	if w.To <= w.From {
		return fmt.Errorf("netsim: bandwidth window [%v,%v) is empty", w.From, w.To)
	}
	n.links[li].bwSched[dir] = append(n.links[li].bwSched[dir], w)
	n.log.Info("uplink bandwidth window scheduled",
		"node", n.names[child], "direction", int(dir),
		"from", w.From, "to", w.To, "factor", w.Value)
	return nil
}

// bandwidthFactorAt resolves the effective bandwidth multiplier of one
// link direction at time t (1 outside every window, last window wins).
func bandwidthFactorAt(sched []Window, t float64) float64 {
	f := 1.0
	for _, w := range sched {
		if t >= w.From && t < w.To {
			f = w.Value
		}
	}
	return f
}

// SetDelayFactor stretches every transfer and latency on the child's
// uplink by f (both directions) — the straggler-gateway knob. f must be
// positive; 1 restores nominal timing.
func (n *Network) SetDelayFactor(child NodeID, f float64) error {
	li, err := n.uplinkIndex(child)
	if err != nil {
		return err
	}
	if f <= 0 {
		return fmt.Errorf("netsim: delay factor %v must be positive", f)
	}
	n.links[li].delayFactor = f
	n.log.Info("uplink delay factor set", "node", n.names[child], "factor", f)
	return nil
}

// SetDown marks a node departed (or returned): Send refuses any path
// crossing a down node, and the hierarchy layer substitutes neutral
// query parts for departed subtrees. Topology is untouched — a down
// node keeps its links and rejoins by clearing the flag.
func (n *Network) SetDown(id NodeID, down bool) error {
	if id < 0 || int(id) >= len(n.down) {
		return fmt.Errorf("netsim: unknown node %d", id)
	}
	n.down[id] = down
	n.log.Info("node availability changed", "node", n.names[id], "down", down)
	return nil
}

// IsDown reports whether a node is currently marked departed. Unknown
// IDs report false.
func (n *Network) IsDown(id NodeID) bool {
	return id >= 0 && int(id) < len(n.down) && n.down[id]
}

// pathDown returns the first down node on a path, or InvalidNode.
func (n *Network) pathDown(path []NodeID) NodeID {
	for _, id := range path {
		if n.IsDown(id) {
			return id
		}
	}
	return InvalidNode
}
