package hierarchy

import (
	"fmt"
	"log/slog"
	"math"

	"edgehd/internal/hdc"
	"edgehd/internal/netsim"
	"edgehd/internal/parallel"
	"edgehd/internal/rng"
)

// InferResult describes where and how a hierarchical inference resolved.
type InferResult struct {
	// Class is the predicted label.
	Class int
	// Node is the device whose model answered.
	Node netsim.NodeID
	// Level is the paper's level numbering: 1 at the entry end node,
	// increasing toward the root.
	Level int
	// Confidence is the softmax confidence of the answering model.
	Confidence float64
	// Escalations counts how many hops upward the query traveled.
	Escalations int
	// WireBytes is the total number of bytes that had to cross links to
	// assemble the query hypervectors at every node visited: the sum of
	// InferCommBytes over the escalation path.
	WireBytes int64
	// TraceID identifies the distributed trace this inference recorded
	// (0 when no tracer is attached). The assembled trace — one root
	// "infer" span with a chained "infer_hop" span per visited node — is
	// retrievable via Tracer.TraceTree and /debug/trace/{id}.
	TraceID uint64
}

// confKeys pre-renders the per-hop confidence attribute names so the
// inference loop avoids fmt.Sprintf for the escalation depths that
// actually occur (tree heights are small); confKey falls back to
// formatting only for implausibly deep trees.
var confKeys = [...]string{
	"confidence.0", "confidence.1", "confidence.2", "confidence.3",
	"confidence.4", "confidence.5", "confidence.6", "confidence.7",
}

func confKey(escal int) string {
	if escal >= 0 && escal < len(confKeys) {
		return confKeys[escal]
	}
	return fmt.Sprintf("confidence.%d", escal)
}

// entryRangeError reports an out-of-range entry index; it is split out
// so Infer's hot path contains no fmt calls.
func entryRangeError(entry int) error {
	return fmt.Errorf("hierarchy: entry end node %d out of range", entry)
}

// Infer runs the §IV-C confidence-routed inference for sample x,
// entering at end node `entry` (partition index): the end node predicts
// with its local model; if the confidence clears the threshold the
// prediction is served locally, otherwise the query escalates to the
// parent, which combines the query hypervectors of all its children and
// tries again, up to the central node (which always answers).
//
// When telemetry is attached, each call opens one distributed trace: a
// root "infer" span (entry/resolve node, resolve level, escalations,
// per-hop confidence, wire bytes) with one "infer_hop" child per node
// visited, each hop chained to the previous one and annotated with that
// node's share of the wire bytes — the hops' wire_bytes sum to the
// result's WireBytes (and so to InferCommBytes) by construction. The
// trace id is returned in InferResult.TraceID and the assembled tree is
// served at /debug/trace/{id}.
func (s *System) Infer(x []float64, entry int) (InferResult, error) {
	if entry < 0 || entry >= len(s.leafIndex) {
		return InferResult{}, entryRangeError(entry)
	}
	cur := s.leafIndex[entry]
	if s.topo.Net.IsDown(cur.id) {
		return InferResult{}, entryDownError(entry)
	}
	root := s.tracer.NewTrace()
	sp := s.tracer.StartSpan("infer", root)
	sp.SetInt("entry_node", int64(cur.id))
	level := 1
	escal := 0
	var wireBytes int64
	// Each hop's span parents on the previous hop, so the trace tree
	// mirrors the escalation path leaf → gateway → central.
	hopParent := root
	for {
		hopCtx := hopParent.Child()
		hop := s.tracer.StartSpan("infer_hop", hopCtx)
		q, err := s.Query(cur.id, x)
		if err != nil {
			// End both spans with the error attached: the trace stays
			// visible in the ring, and a tail sampler retains it under its
			// "error" reason instead of it vanishing unfinished.
			hop.SetInt("node", int64(cur.id)).SetStr("error", err.Error()).End()
			if sp != nil {
				sp.SetStr("error", err.Error())
			}
			sp.End()
			return InferResult{}, err
		}
		hopBytes := s.InferCommBytes(cur.id)
		wireBytes += hopBytes
		class, conf := cur.model.Confidence(q)
		cur.hvOps.Add(int64(s.classes+1) * int64(cur.dim))
		s.met.assocTotal.Add(1)
		hop.SetInt("node", int64(cur.id)).
			SetInt("level", int64(level)).
			SetInt("wire_bytes", hopBytes).
			SetFloat("confidence", conf).
			End()
		hopParent = hopCtx
		if sp != nil {
			sp.SetFloat(confKey(escal), conf)
		}
		// Escalation targets the nearest live ancestor: a departed
		// gateway is routed past, not waited on. With no churn this is
		// exactly the parent pointer.
		next := s.liveParent(cur.id)
		if conf >= s.cfg.ConfidenceThreshold || next == netsim.InvalidNode {
			res := InferResult{Class: class, Node: cur.id, Level: level, Confidence: conf, Escalations: escal, WireBytes: wireBytes, TraceID: root.TraceID}
			s.met.inferTotal.Add(1)
			if escal == 0 {
				s.met.inferLocal.Add(1)
			}
			s.met.inferEscalations.Add(int64(escal))
			s.met.inferWireBytes.Add(wireBytes)
			s.met.inferLevel.Observe(float64(level))
			s.met.inferConfidence.Observe(conf)
			if sp != nil {
				sp.SetInt("resolve_node", int64(cur.id)).
					SetInt("resolve_level", int64(level)).
					SetInt("escalations", int64(escal)).
					SetInt("wire_bytes", wireBytes).
					SetFloat("confidence", conf).
					SetInt("class", int64(class))
				sp.End()
			}
			// Per-inference records are debug-level and guarded, so the
			// hot path skips attribute assembly entirely at info and above.
			if s.log.Enabled(slog.LevelDebug) {
				s.log.WithTrace(root).Debug("inference resolved",
					"entry", entry, "node", int(cur.id), "level", level,
					"class", class, "confidence", conf,
					"escalations", escal, "wire_bytes", wireBytes)
			}
			return res, nil
		}
		cur = s.nodes[next]
		level++
		escal++
	}
}

// PredictAt classifies x with the model of a specific node, bypassing
// the confidence routing — Table II's per-level accuracy columns use
// this. On an internal encoding failure it degrades to -1 (never a
// valid class) instead of crashing the node.
func (s *System) PredictAt(id netsim.NodeID, x []float64) int {
	n := s.nodes[id]
	q, err := s.Query(id, x)
	if err != nil {
		return -1
	}
	class, _ := n.model.Classify(q)
	return class
}

// ConfidenceAt returns the prediction and confidence of a specific
// node's model for x ((-1, 0) on an internal encoding failure).
func (s *System) ConfidenceAt(id netsim.NodeID, x []float64) (int, float64) {
	n := s.nodes[id]
	q, err := s.Query(id, x)
	if err != nil {
		return -1, 0
	}
	return n.model.Confidence(q)
}

// PredictAtCorrupted classifies x at a node with bit-loss injection on
// every link crossed (Fig 12). Degrades to -1 on an internal encoding
// failure.
func (s *System) PredictAtCorrupted(id netsim.NodeID, x []float64, r *rng.Source) int {
	n := s.nodes[id]
	q, err := s.QueryCorrupted(id, x, r)
	if err != nil {
		return -1
	}
	class, _ := n.model.Classify(q)
	return class
}

// AccuracyAt evaluates a node's model over a labelled set, fanning the
// per-sample predictions over the pool. Per-chunk correct counts sum in
// chunk order, so the result matches the sequential sweep exactly.
func (s *System) AccuracyAt(id netsim.NodeID, x [][]float64, y []int) float64 {
	if len(x) == 0 {
		return 0
	}
	spans := parallel.Chunks(len(x))
	counts := make([]int, len(spans))
	s.pool.RunChunks("hier_accuracy", spans, func(ci int, sp parallel.Span) {
		n := 0
		for i := sp.Lo; i < sp.Hi; i++ {
			if s.PredictAt(id, x[i]) == y[i] {
				n++
			}
		}
		counts[ci] = n
	})
	correct := 0
	for _, n := range counts {
		correct += n
	}
	return float64(correct) / float64(len(x))
}

// LevelAccuracy averages AccuracyAt over every node at tree depth
// `depth` (0 = central). For end-node levels each device only sees its
// own features, which is exactly the Table II "End Nodes" column.
func (s *System) LevelAccuracy(depth int, x [][]float64, y []int) float64 {
	nodes := s.nodesAtDepth(depth)
	if len(nodes) == 0 {
		return 0
	}
	total := 0.0
	for _, n := range nodes {
		total += s.AccuracyAt(n.id, x, y)
	}
	return total / float64(len(nodes))
}

func (s *System) nodesAtDepth(depth int) []*node {
	var out []*node
	for _, n := range s.nodes {
		if n.depth == depth {
			out = append(out, n)
		}
	}
	return out
}

// InferCommBytes returns the total bytes that must move to assemble the
// query hypervector at the given node: every link strictly inside the
// node's subtree carries its child's query once. With the §IV-C
// compression enabled (m > 1), m outstanding queries share one
// compressed integer transfer, amortizing to CompressedWireBytes/m per
// query per link.
//
// Departed subtrees move nothing: their placeholder is synthesized at
// the parent, so they are excluded here exactly as in InferCommTime —
// Infer's per-hop wire_bytes spans stay reconcilable under churn.
func (s *System) InferCommBytes(id netsim.NodeID) int64 {
	n := s.nodes[id]
	if n.isLeaf() {
		return 0
	}
	var total int64
	for _, c := range n.children {
		if s.topo.Net.IsDown(c) {
			continue
		}
		child := s.nodes[c]
		total += s.queryWireBytes(child) + s.InferCommBytes(c)
	}
	return total
}

// queryWireBytes is the amortized per-query transfer size of one child's
// query hypervector under the configured compression rate.
func (s *System) queryWireBytes(child *node) int64 {
	m := s.cfg.CompressionRate
	if m <= 1 {
		return int64(hdc.NewBipolar(child.dim).WireBytes())
	}
	return int64(CompressedWireBytes(child.dim, m)) / int64(m)
}

// bundleWireBytes is the transfer size of one full compressed bundle of
// a child's query hypervectors (m queries when compression is enabled,
// a single binary hypervector otherwise).
func (s *System) bundleWireBytes(child *node) int64 {
	m := s.cfg.CompressionRate
	if m <= 1 {
		return int64(hdc.NewBipolar(child.dim).WireBytes())
	}
	return int64(CompressedWireBytes(child.dim, m))
}

// InferCommTime simulates the transfers needed to assemble one bundle
// of queries at `id` (m compressed queries per link, §IV-C) departing
// at the given time, returning the completion time. Transfers proceed
// bottom-up; siblings share their uplink serialization.
func (s *System) InferCommTime(id netsim.NodeID, depart float64) (float64, error) {
	n := s.nodes[id]
	if n.isLeaf() {
		return depart, nil
	}
	finish := depart
	for _, c := range n.children {
		if s.topo.Net.IsDown(c) {
			continue
		}
		childReady, err := s.InferCommTime(c, depart)
		if err != nil {
			return 0, err
		}
		arr, err := s.topo.Net.Send(c, id, int(s.bundleWireBytes(s.nodes[c])), childReady)
		if err != nil {
			return 0, err
		}
		if arr > finish {
			finish = arr
		}
	}
	return finish, nil
}

// QueryWork returns the computation needed to assemble one query
// hypervector at a node: encoding MACs at the subtree's leaves and
// projection ops at its internal nodes. The device models convert these
// into per-query latency and energy.
func (s *System) QueryWork(id netsim.NodeID) (encodeMACs, hvOps int64) {
	n := s.nodes[id]
	if n.isLeaf() {
		return n.enc.MACsPerEncode(), 0
	}
	var macs, ops int64
	for _, c := range n.children {
		m, o := s.QueryWork(c)
		macs += m
		ops += o
	}
	if n.proj != nil {
		ops += n.proj.Ops()
	}
	return macs, ops
}

// AssocOps returns the op count of one associative search at a node:
// k class dot products plus the comparator pass (§V-B).
func (s *System) AssocOps(id netsim.NodeID) int64 {
	return int64(s.classes+1) * int64(s.nodes[id].dim)
}

// NodeInfo describes one device for the cost models.
type NodeInfo struct {
	ID    netsim.NodeID
	Depth int
	Dim   int
	Leaf  bool
}

// Nodes lists every device in the hierarchy.
func (s *System) Nodes() []NodeInfo {
	out := make([]NodeInfo, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = NodeInfo{ID: n.id, Depth: n.depth, Dim: n.dim, Leaf: n.isLeaf()}
	}
	return out
}

// CompressedWireBytes is the transfer size of one compressed bundle of
// m bipolar hypervectors of the given dimension (eq. 3): the bound sum
// has components in [−m, m], needing ⌈log2(2m+1)⌉ bits per dimension.
func CompressedWireBytes(dim, m int) int {
	bits := int(math.Ceil(math.Log2(float64(2*m + 1))))
	return (dim*bits + 7) / 8
}

// Compress bundles the given query hypervectors with freshly drawn
// position hypervectors (eq. 3), returning the compressed accumulator
// and the positions needed to decompress.
func Compress(queries []hdc.Bipolar, r *rng.Source) (hdc.Acc, []hdc.Bipolar) {
	if len(queries) == 0 {
		return hdc.Acc{}, nil
	}
	dim := queries[0].Dim()
	sum := hdc.NewAcc(dim)
	positions := make([]hdc.Bipolar, len(queries))
	for i, q := range queries {
		positions[i] = hdc.RandomBipolar(dim, r)
		sum.AddBound(positions[i], q)
	}
	return sum, positions
}

// Decompress recovers the i-th query from a compressed bundle (eq. 4).
func Decompress(sum hdc.Acc, positions []hdc.Bipolar, i int) hdc.Bipolar {
	return sum.UnbindSign(positions[i])
}
