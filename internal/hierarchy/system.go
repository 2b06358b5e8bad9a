package hierarchy

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"edgehd/internal/core"
	"edgehd/internal/dataset"
	"edgehd/internal/encoding"
	"edgehd/internal/hdc"
	"edgehd/internal/netsim"
	"edgehd/internal/parallel"
	"edgehd/internal/rng"
	"edgehd/internal/telemetry"
)

// node is one device in the hierarchy with its model state.
type node struct {
	id    netsim.NodeID
	depth int
	// leafPos is the end-node partition index, or −1 for internal nodes.
	leafPos int
	// features lists the global feature indices a leaf observes; nil
	// for internal nodes.
	features []int
	// subFeatures counts the features observed anywhere in the subtree.
	subFeatures int
	// dim is the node's hypervector dimensionality d_i = D·n_i/n.
	dim int
	// enc is the leaf encoder (§III-A / §V-A sparse variant).
	enc *encoding.Sparse
	// children in fixed concatenation order.
	children []netsim.NodeID
	// proj is the hierarchical encoder of internal nodes (nil for
	// leaves, and nil in the non-holographic concatenation ablation).
	proj     *Projection
	model    *core.Model
	residual *core.Residual
	// work accounting accumulated by training/inference, in op counts.
	// Atomic because the parallel engine fans per-leaf training and
	// per-sample evaluation over goroutines; op-count sums are
	// order-independent, so atomics keep them exact and race-free.
	encodeMACs atomic.Int64
	hvOps      atomic.Int64
}

// System is a fully built EdgeHD hierarchy over a topology: per-node
// encoders, hierarchical encoders, models and residuals, plus the
// network used for communication accounting.
type System struct {
	topo    *netsim.Topology
	cfg     Config
	classes int
	// totalFeatures n across all end nodes.
	totalFeatures int
	nodes         []*node // indexed by netsim.NodeID
	// leafIndex maps an end-node position (dataset partition index) to
	// its node.
	leafIndex []*node
	// pool is the parallel execution engine (cfg.Workers wide); all
	// fan-out is byte-identical to the sequential path by construction.
	pool *parallel.Pool
	// tracer records hot-path spans; met holds the pre-resolved metric
	// instruments. Both stay nil (no-op) until telemetry is attached.
	tracer *telemetry.Tracer
	met    sysMetrics
	// log receives structured operational records (nil = logging
	// disabled); hot paths derive trace-correlated children from it.
	log *telemetry.Logger
}

// sysMetrics caches the registry instruments the hierarchy hot paths
// touch. Instruments are resolved once at SetTelemetry, so when
// telemetry is disabled every site costs one nil check, keeping the
// disabled path within noise of the uninstrumented one.
type sysMetrics struct {
	encodeTotal   *telemetry.Counter
	encodeSeconds *telemetry.Histogram
	assocTotal    *telemetry.Counter
	projOps       *telemetry.Counter

	inferTotal       *telemetry.Counter
	inferLocal       *telemetry.Counter
	inferEscalations *telemetry.Counter
	inferWireBytes   *telemetry.Counter
	inferLevel       *telemetry.Histogram
	inferConfidence  *telemetry.Histogram

	trainRuns    *telemetry.Counter
	trainBytes   *telemetry.Counter
	trainBatches *telemetry.Counter

	onlineSweeps    *telemetry.Counter
	onlineBytes     *telemetry.Counter
	feedbackApplied *telemetry.Counter
}

// SetTelemetry attaches (or with nils, detaches) a metrics registry and
// tracer to the system, and propagates the registry to the topology's
// network so per-link metrics surface alongside the hierarchy's own.
func (s *System) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	s.tracer = tracer
	s.pool.SetTelemetry(reg)
	s.met = sysMetrics{
		encodeTotal:      reg.Counter("hier_encode_total"),
		encodeSeconds:    reg.Histogram("hier_encode_seconds"),
		assocTotal:       reg.Counter("hier_assoc_search_total"),
		projOps:          reg.Counter("hier_projection_ops_total"),
		inferTotal:       reg.Counter("infer_total"),
		inferLocal:       reg.Counter("infer_resolved_local_total"),
		inferEscalations: reg.Counter("infer_escalations_total"),
		inferWireBytes:   reg.Counter("infer_wire_bytes_total"),
		inferLevel:       reg.Histogram("infer_resolve_level"),
		inferConfidence:  reg.Histogram("infer_confidence"),
		trainRuns:        reg.Counter("train_runs_total"),
		trainBytes:       reg.Counter("train_bytes_total"),
		trainBatches:     reg.Counter("train_batch_hvs_total"),
		onlineSweeps:     reg.Counter("online_sweeps_total"),
		onlineBytes:      reg.Counter("online_bytes_total"),
		feedbackApplied:  reg.Counter("online_feedback_applied_total"),
	}
	s.topo.Net.SetTelemetry(reg)
}

// SetLogger attaches (or with nil, detaches) a structured logger to the
// system and the topology's network. Records emit under component
// "hierarchy" (and "netsim" for link events).
func (s *System) SetLogger(log *telemetry.Logger) {
	s.log = log.WithComponent("hierarchy")
	s.topo.Net.SetLogger(log)
}

// Build constructs the hierarchy for a topology whose end nodes observe
// the features in partition (partition[i] lists global feature indices
// of end node i, as produced by dataset.Dataset.Partition).
func Build(topo *netsim.Topology, partition [][]int, numClasses int, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if len(partition) != len(topo.EndNodes) {
		return nil, fmt.Errorf("hierarchy: %d feature partitions for %d end nodes", len(partition), len(topo.EndNodes))
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("hierarchy: need at least 2 classes, got %d", numClasses)
	}
	if err := parallel.Validate(cfg.Workers); err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	s := &System{
		topo:    topo,
		cfg:     cfg,
		classes: numClasses,
		nodes:   make([]*node, topo.Net.NumNodes()),
		pool:    parallel.New(cfg.Workers),
	}
	for _, p := range partition {
		if len(p) == 0 {
			return nil, fmt.Errorf("hierarchy: empty feature partition")
		}
		s.totalFeatures += len(p)
	}
	// Create node shells.
	for id := 0; id < topo.Net.NumNodes(); id++ {
		s.nodes[id] = &node{id: netsim.NodeID(id), depth: topo.Net.Depth(netsim.NodeID(id)), leafPos: -1}
	}
	for i, leafID := range topo.EndNodes {
		n := s.nodes[leafID]
		n.features = partition[i]
		n.subFeatures = len(partition[i])
		n.leafPos = i
		s.leafIndex = append(s.leafIndex, n)
	}
	// Children lists in insertion order; subtree feature counts
	// bottom-up (children always have higher IDs than... not guaranteed
	// for Grouped — propagate by repeated passes over depth order).
	order := s.depthOrder() // deepest first
	for _, n := range order {
		if p := topo.Net.Parent(n.id); p != netsim.InvalidNode {
			parent := s.nodes[p]
			parent.children = append(parent.children, n.id)
			parent.subFeatures += n.subFeatures
		}
	}
	if s.nodes[topo.Central].subFeatures != s.totalFeatures {
		return nil, fmt.Errorf("hierarchy: central subtree sees %d features, want %d", s.nodes[topo.Central].subFeatures, s.totalFeatures)
	}
	// Dimension allocation: d_i = D·n_i/n with a floor; the central node
	// gets exactly D (§IV-A). In the non-holographic ablation internal
	// dims are forced to the sum of child dims (pure concatenation).
	seedSrc := rng.New(cfg.Seed)
	for _, n := range order { // deepest first: children before parents
		if n.isLeaf() {
			n.dim = s.allocDim(n.subFeatures)
			enc, err := encoding.NewSparse(len(n.features), n.dim, seedSrc.Uint64(), encoding.SparseConfig{Sparsity: cfg.Sparsity})
			if err != nil {
				return nil, fmt.Errorf("hierarchy: node %d encoder: %w", n.id, err)
			}
			n.enc = enc
		} else {
			inDim := 0
			for _, c := range n.children {
				inDim += s.nodes[c].dim
			}
			if cfg.holographic() {
				if n.id == topo.Central {
					n.dim = cfg.TotalDim
				} else {
					n.dim = s.allocDim(n.subFeatures)
				}
				proj, err := NewProjection(inDim, n.dim, cfg.ProjectionFanIn, seedSrc.Uint64())
				if err != nil {
					return nil, fmt.Errorf("hierarchy: node %d hierarchical encoder: %w", n.id, err)
				}
				n.proj = proj
			} else {
				n.dim = inDim
			}
		}
		model, err := core.NewModel(n.dim, numClasses)
		if err != nil {
			return nil, fmt.Errorf("hierarchy: node %d model: %w", n.id, err)
		}
		residual, err := core.NewResidual(n.dim, numClasses)
		if err != nil {
			return nil, fmt.Errorf("hierarchy: node %d residual: %w", n.id, err)
		}
		n.model = model
		n.residual = residual
	}
	s.SetTelemetry(cfg.Telemetry, cfg.Tracer)
	s.SetLogger(cfg.Logger)
	return s, nil
}

// BuildForDataset is a convenience wrapping Build with a dataset's
// partition and class count.
func BuildForDataset(topo *netsim.Topology, d *dataset.Dataset, cfg Config) (*System, error) {
	return Build(topo, d.Partition, d.Spec.Classes, cfg)
}

// allocDim computes d_i = D·n_i/n floored at MinDim.
func (s *System) allocDim(features int) int {
	d := int(math.Round(float64(s.cfg.TotalDim) * float64(features) / float64(s.totalFeatures)))
	if d < s.cfg.MinDim {
		d = s.cfg.MinDim
	}
	return d
}

func (n *node) isLeaf() bool { return n.features != nil }

// depthOrder returns all nodes ordered deepest-first (children before
// parents), ties broken by node ID for determinism.
func (s *System) depthOrder() []*node {
	out := append([]*node(nil), s.nodes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].depth != out[j].depth {
			return out[i].depth > out[j].depth
		}
		return out[i].id < out[j].id
	})
	return out
}

// Config returns the resolved configuration.
func (s *System) Config() Config { return s.cfg }

// Topology returns the underlying topology.
func (s *System) Topology() *netsim.Topology { return s.topo }

// NodeDim returns the hypervector dimensionality assigned to a node.
func (s *System) NodeDim(id netsim.NodeID) int { return s.nodes[id].dim }

// NodeModel returns the model trained at a node (shared, not a copy).
func (s *System) NodeModel(id netsim.NodeID) *core.Model { return s.nodes[id].model }

// LeafDims returns the dimensionality of every end node in partition
// order.
func (s *System) LeafDims() []int {
	out := make([]int, len(s.leafIndex))
	for i, n := range s.leafIndex {
		out[i] = n.dim
	}
	return out
}

// encodeLeaf encodes a full sample's feature view at leaf position i.
func (s *System) encodeLeaf(i int, x []float64) hdc.Bipolar {
	n := s.leafIndex[i]
	n.encodeMACs.Add(n.enc.MACsPerEncode())
	s.met.encodeTotal.Add(1)
	stop := s.met.encodeSeconds.StartTimer()
	hv := n.enc.Encode(dataset.Project(x, n.features))
	stop()
	return hv
}

// combine applies the hierarchical encoding of an internal node to its
// children's bipolar hypervectors (in child order): concatenate, then
// project-and-sign when holographic (Fig 4b), or return the
// concatenation as-is (Fig 4a ablation).
func (s *System) combine(n *node, parts []hdc.Bipolar) (hdc.Bipolar, error) {
	cat := hdc.ConcatBipolar(parts...)
	if n.proj == nil {
		return cat, nil
	}
	n.hvOps.Add(n.proj.Ops())
	s.met.projOps.Add(n.proj.Ops())
	out, err := n.proj.Bipolar(cat)
	if err != nil {
		return hdc.Bipolar{}, fmt.Errorf("hierarchy: node %d: %w", n.id, err)
	}
	return out, nil
}

// combineAcc is the integer-preserving variant used for class
// hypervectors and residuals.
func (s *System) combineAcc(n *node, parts []hdc.Acc) (hdc.Acc, error) {
	cat := hdc.ConcatAcc(parts...)
	if n.proj == nil {
		return cat, nil
	}
	n.hvOps.Add(n.proj.Ops())
	s.met.projOps.Add(n.proj.Ops())
	out, err := n.proj.Acc(cat)
	if err != nil {
		return hdc.Acc{}, fmt.Errorf("hierarchy: node %d: %w", n.id, err)
	}
	return out, nil
}

// Query computes the query hypervector of sample x at the given node:
// leaf encoding at end nodes, recursive hierarchical encoding above
// (§IV-A). This is the pure computation; communication accounting for
// moving the parts is handled by the cost helpers.
func (s *System) Query(id netsim.NodeID, x []float64) (hdc.Bipolar, error) {
	n := s.nodes[id]
	if n.isLeaf() {
		return s.encodeLeaf(n.leafPos, x), nil
	}
	parts := make([]hdc.Bipolar, len(n.children))
	// Child subtrees are independent, so the fan-out runs over the
	// pool: each child writes its own slot and the concatenation below
	// consumes the slots in child order, keeping the query identical to
	// the sequential recursion. The first error in child order wins.
	// Departed children (churn injection) contribute neutral
	// placeholders so the concatenation keeps its build-time shape.
	err := s.pool.RunErr("hier_query_fanout", len(n.children), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if s.topo.Net.IsDown(n.children[i]) {
				parts[i] = s.neutralPart(n.children[i])
				continue
			}
			part, err := s.Query(n.children[i], x)
			if err != nil {
				return err
			}
			parts[i] = part
		}
		return nil
	})
	if err != nil {
		return hdc.Bipolar{}, err
	}
	return s.combine(n, parts)
}

// lossBurst is the burst length (in hypervector components) of one lost
// packet in the §VI-F failure injection. Small hypervectors fit in a
// fraction of a packet, so the burst is capped at an eighth of the
// vector — otherwise any nonzero loss rate would always erase a tiny
// end-node transfer completely.
const lossBurst = 32

func burstFor(dim int) int {
	b := dim / 8
	if b > lossBurst {
		b = lossBurst
	}
	if b < 1 {
		b = 1
	}
	return b
}

// QueryCorrupted is Query with per-uplink data-loss injection (§VI-F):
// every hypervector crossing a link suffers burst erasure at the link's
// loss rate (contiguous runs of components lost, as packet loss does)
// before being combined at the parent. It evaluates the fault state at
// simulation time 0; QueryCorruptedAt (churn.go) is the time-aware
// generalization the scenario engine drives.
func (s *System) QueryCorrupted(id netsim.NodeID, x []float64, r *rng.Source) (hdc.Bipolar, error) {
	return s.QueryCorruptedAt(id, x, r, 0)
}

// WorkAt reports the accumulated op counts at a node since the system
// was built (or since ResetWork).
func (s *System) WorkAt(id netsim.NodeID) (encodeMACs, hvOps int64) {
	n := s.nodes[id]
	return n.encodeMACs.Load(), n.hvOps.Load()
}

// ResetWork clears all per-node op accounting.
func (s *System) ResetWork() {
	for _, n := range s.nodes {
		n.encodeMACs.Store(0)
		n.hvOps.Store(0)
	}
}
