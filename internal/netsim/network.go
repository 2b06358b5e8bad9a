package netsim

import (
	"fmt"

	"edgehd/internal/telemetry"
)

// NodeID identifies a node inside one Network.
type NodeID int

// InvalidNode is returned by lookups that fail.
const InvalidNode NodeID = -1

// link is a half-duplex tree edge between a child and its parent.
type link struct {
	child, parent NodeID
	medium        Medium
	lossRate      float64
	// fault-injection state (see fault.go): time-windowed loss and
	// bandwidth schedules plus the straggler delay multiplier (0 = off).
	lossSched   []Window
	bwSched     [2][]Window
	delayFactor float64
	// busyUntil tracks when the link becomes free in each direction
	// (0: child→parent, 1: parent→child), serializing transfers.
	busyUntil [2]float64
	// accounting
	bytes    int64
	energyJ  float64
	busySecs float64
	// per-link telemetry instruments, resolved by SetTelemetry (nil and
	// no-op until a registry is attached).
	telBytes    *telemetry.Counter
	telEnergy   *telemetry.Gauge
	telTransfer *telemetry.Histogram
}

// Network is a tree-topology network simulator. Nodes are added first,
// then connected child→parent; transfers route along the unique tree
// path. The simulator is single-threaded and deterministic: transfers
// are processed in submission order, and a shared link delays later
// transfers until earlier ones drain (half-duplex per direction).
type Network struct {
	names  []string
	parent []NodeID
	uplink []int // index into links for each node's link to its parent
	links  []link
	// down marks departed nodes (churn injection, see fault.go).
	down []bool

	// tel is the attached metrics registry (nil = telemetry disabled);
	// the aggregate instruments below are resolved once by SetTelemetry
	// so the hop hot path pays only nil checks when disabled.
	tel         *telemetry.Registry
	telBytes    *telemetry.Counter
	telHops     *telemetry.Counter
	telEnergy   *telemetry.Gauge
	telTransfer *telemetry.Histogram
	// log records topology changes (nil = logging disabled). The hop hot
	// path never logs — per-transfer data lives in the metrics above.
	log *telemetry.Logger
}

// New returns an empty network.
func New() *Network {
	return &Network{}
}

// AddNode registers a node and returns its ID.
func (n *Network) AddNode(name string) NodeID {
	n.names = append(n.names, name)
	n.parent = append(n.parent, InvalidNode)
	n.uplink = append(n.uplink, -1)
	n.down = append(n.down, false)
	return NodeID(len(n.names) - 1)
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.names) }

// Name returns a node's display name.
func (n *Network) Name(id NodeID) string { return n.names[id] }

// Parent returns a node's parent, or InvalidNode for a root.
func (n *Network) Parent(id NodeID) NodeID { return n.parent[id] }

// Connect attaches child to parent over medium m. Each node has at most
// one parent; reconnecting returns an error.
func (n *Network) Connect(child, parent NodeID, m Medium) error {
	if child == parent {
		return fmt.Errorf("netsim: cannot connect node %d to itself", child)
	}
	if n.parent[child] != InvalidNode {
		return fmt.Errorf("netsim: node %d already has a parent", child)
	}
	// Reject cycles: walk up from parent; child must not appear.
	for p := parent; p != InvalidNode; p = n.parent[p] {
		if p == child {
			return fmt.Errorf("netsim: connecting %d under %d would create a cycle", child, parent)
		}
	}
	n.parent[child] = parent
	n.links = append(n.links, link{child: child, parent: parent, medium: m})
	n.uplink[child] = len(n.links) - 1
	if n.tel != nil {
		n.resolveLinkInstruments(len(n.links) - 1)
	}
	n.log.Debug("link connected",
		"child", n.names[child], "parent", n.names[parent],
		"medium", m.Name, "bandwidth_bps", m.BandwidthBps)
	return nil
}

// SetTelemetry attaches a metrics registry: every hop then surfaces
// per-link bytes (net_link_bytes), transmit energy (net_link_energy_j)
// and serialization latency (net_link_transfer_seconds) as labeled
// metrics, plus network-wide aggregates. A nil registry detaches.
func (n *Network) SetTelemetry(reg *telemetry.Registry) {
	n.tel = reg
	n.telBytes = reg.Counter("net_bytes_total")
	n.telHops = reg.Counter("net_hops_total")
	n.telEnergy = reg.Gauge("net_energy_j")
	n.telTransfer = reg.Histogram("net_transfer_seconds")
	for i := range n.links {
		if reg == nil {
			n.links[i].telBytes = nil
			n.links[i].telEnergy = nil
			n.links[i].telTransfer = nil
			continue
		}
		n.resolveLinkInstruments(i)
	}
}

// resolveLinkInstruments binds link i's labeled instruments in n.tel.
func (n *Network) resolveLinkInstruments(i int) {
	l := &n.links[i]
	labels := []telemetry.Label{
		telemetry.L("link", n.names[l.child]+"->"+n.names[l.parent]),
		telemetry.L("medium", l.medium.Name),
	}
	l.telBytes = n.tel.Counter("net_link_bytes", labels...)
	l.telEnergy = n.tel.Gauge("net_link_energy_j", labels...)
	l.telTransfer = n.tel.Histogram("net_link_transfer_seconds", labels...)
}

// SetLogger attaches (or with nil, detaches) a structured logger;
// records emit under component "netsim".
func (n *Network) SetLogger(log *telemetry.Logger) {
	n.log = log.WithComponent("netsim")
}

// SetLossRate sets the static per-bit corruption probability of the
// child's uplink, used by the Fig 12 failure injection. Time-windowed
// overrides come from ScheduleLoss (fault.go).
func (n *Network) SetLossRate(child NodeID, rate float64) error {
	li, err := n.uplinkIndex(child)
	if err != nil {
		return err
	}
	if rate < 0 || rate > 1 {
		return fmt.Errorf("netsim: loss rate %v out of [0,1]", rate)
	}
	n.links[li].lossRate = rate
	n.log.Info("uplink loss rate set", "node", n.names[child], "loss_rate", rate)
	return nil
}

// PathUp returns the chain of node IDs from `from` up to `to`, both
// inclusive; `to` must be an ancestor of `from` (or equal).
func (n *Network) PathUp(from, to NodeID) ([]NodeID, error) {
	path := []NodeID{from}
	for cur := from; cur != to; {
		p := n.parent[cur]
		if p == InvalidNode {
			return nil, fmt.Errorf("netsim: %q is not an ancestor of %q", n.names[to], n.names[from])
		}
		path = append(path, p)
		cur = p
	}
	return path, nil
}

// Depth returns the number of hops from the node to the root.
func (n *Network) Depth(id NodeID) int {
	d := 0
	for p := n.parent[id]; p != InvalidNode; p = n.parent[p] {
		d++
	}
	return d
}

// Children returns the direct children of id in insertion order.
func (n *Network) Children(id NodeID) []NodeID {
	var out []NodeID
	for c, p := range n.parent {
		if p == id {
			out = append(out, NodeID(c))
		}
	}
	return out
}

const (
	dirUp   = 0
	dirDown = 1
)

// hop moves bytes across a single link in the given direction, starting
// no earlier than depart, and returns the arrival time.
func (n *Network) hop(li int, dir int, bytes int, depart float64) float64 {
	l := &n.links[li]
	start := depart
	if l.busyUntil[dir] > start {
		start = l.busyUntil[dir]
	}
	// Straggler and congestion injection: the delay factor stretches
	// both serialization and latency; the bandwidth factor (sampled at
	// transmission start) scales throughput only.
	delay := l.delayFactor
	if delay <= 0 {
		delay = 1
	}
	tx := l.medium.TransferSeconds(bytes) * delay / bandwidthFactorAt(l.bwSched[dir], start)
	l.busyUntil[dir] = start + tx
	l.bytes += int64(bytes)
	energy := float64(bytes) * l.medium.JoulesPerByte
	l.energyJ += energy
	l.busySecs += tx
	l.telBytes.Add(int64(bytes))
	l.telEnergy.Add(energy)
	l.telTransfer.Observe(tx)
	n.telBytes.Add(int64(bytes))
	n.telHops.Inc()
	n.telEnergy.Add(energy)
	n.telTransfer.Observe(tx)
	return start + tx + l.medium.Latency.Seconds()*delay
}

// Send moves bytes from one node to an ancestor or descendant, hop by
// hop, departing at the given simulation time. It returns the arrival
// time at the destination. Sends between nodes that are not in an
// ancestor relationship return an error (the hierarchy never needs
// sibling traffic; everything flows up or down the tree).
func (n *Network) Send(from, to NodeID, bytes int, depart float64) (float64, error) {
	if n.IsDown(from) {
		return 0, fmt.Errorf("netsim: source %q is down", n.names[from])
	}
	if n.IsDown(to) {
		return 0, fmt.Errorf("netsim: destination %q is down", n.names[to])
	}
	if from == to {
		return depart, nil
	}
	if path, err := n.PathUp(from, to); err == nil {
		if d := n.pathDown(path); d != InvalidNode {
			return 0, fmt.Errorf("netsim: path crosses down node %q", n.names[d])
		}
		t := depart
		for i := 0; i < len(path)-1; i++ {
			t = n.hop(n.uplink[path[i]], dirUp, bytes, t)
		}
		return t, nil
	}
	path, err := n.PathUp(to, from)
	if err != nil {
		return 0, fmt.Errorf("netsim: no tree path between %q and %q", n.names[from], n.names[to])
	}
	if d := n.pathDown(path); d != InvalidNode {
		return 0, fmt.Errorf("netsim: path crosses down node %q", n.names[d])
	}
	// Walk downward: traverse the reversed up-path from `from` to `to`.
	t := depart
	for i := len(path) - 1; i > 0; i-- {
		t = n.hop(n.uplink[path[i-1]], dirDown, bytes, t)
	}
	return t, nil
}

// Stats aggregates network accounting.
type Stats struct {
	// TotalBytes moved across all links (each hop counts once).
	TotalBytes int64
	// EnergyJ is the total transmit energy in joules.
	EnergyJ float64
	// BusySeconds sums per-link serialization time.
	BusySeconds float64
}

// Stats returns the accumulated accounting since the last Reset.
func (n *Network) Stats() Stats {
	var s Stats
	for i := range n.links {
		s.TotalBytes += n.links[i].bytes
		s.EnergyJ += n.links[i].energyJ
		s.BusySeconds += n.links[i].busySecs
	}
	return s
}

// Reset clears link business, accounting, and all fault-injection
// state — static loss rates, loss and bandwidth schedules, delay
// factors, and node down flags — keeping only the topology. A reused
// Network therefore always restarts from a fault-free baseline; an
// earlier version kept loss rates across Reset, silently corrupting
// any experiment that followed a failure injection.
func (n *Network) Reset() {
	for i := range n.links {
		n.links[i].busyUntil = [2]float64{}
		n.links[i].bytes = 0
		n.links[i].energyJ = 0
		n.links[i].busySecs = 0
		n.links[i].lossRate = 0
		n.links[i].lossSched = nil
		n.links[i].bwSched = [2][]Window{}
		n.links[i].delayFactor = 0
	}
	for i := range n.down {
		n.down[i] = false
	}
}
