// Package cluster is a live, message-passing execution of EdgeHD's
// federated aggregation: worker devices train HD models on local data
// shards and push them — as wire-encoded hypervector messages over real
// connections (in-process pipes or TCP) — to an aggregator that merges
// them by bundling and broadcasts the global model back (§II's
// "models, not data" aggregation in its homogeneous-feature form).
//
// Where internal/hierarchy simulates the full heterogeneous tree with
// modelled communication, this package actually moves bytes between
// concurrent goroutines, demonstrating that the aggregation algebra is
// exactly a sum of wire-transferable class accumulators: the federated
// result is bit-identical to training one model on the union of the
// shards.
package cluster

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"edgehd/internal/core"
	"edgehd/internal/encoding"
	"edgehd/internal/hdc"
	"edgehd/internal/parallel"
	"edgehd/internal/telemetry"
	"edgehd/internal/wire"
)

// Config shapes a federated run. All workers share the encoder seed —
// hypervector spaces must coincide for bundled models to be mergeable.
type Config struct {
	// Features n of the (homogeneous) feature space.
	Features int
	// Classes k.
	Classes int
	// Dim D of the hypervectors. Default 4000.
	Dim int
	// EncoderSeed shared by every worker.
	EncoderSeed uint64
	// Sparsity of the worker encoders. Default 0.8.
	Sparsity float64
	// LocalEpochs of retraining each worker performs before pushing.
	// Default 0 (initial bundling only — retraining before merging
	// breaks the merge-equals-joint-training identity).
	LocalEpochs int
	// Tracer records distributed-trace spans for every push, merge, and
	// broadcast, stitched across connections by the wire trace header.
	// Nil disables tracing (zero overhead: no trace block is emitted).
	Tracer *telemetry.Tracer
	// Logger receives structured records of pushes, pulls and merges,
	// trace-correlated with the spans above. Nil disables logging.
	Logger *telemetry.Logger
	// IOTimeout bounds every wire read and write on a deadline-capable
	// connection (net.Conn, net.Pipe): a peer that stalls mid-frame
	// fails its slot with a deadline error instead of wedging the round
	// forever. Default 30s; negative disables deadlines (trusted
	// in-process pipes under test harnesses that single-step).
	IOTimeout time.Duration
	// WrapWorkerConn, when non-nil, wraps each worker's end of its
	// connection before the round runs — the fault-injection hook
	// internal/scenario uses to interpose duplicating, reordering, or
	// truncating conns between workers and the aggregator. slot is the
	// worker's aggregation slot. The wrapper assumes ownership of the
	// inner conn: closing the returned conn must close it.
	WrapWorkerConn func(slot int, conn net.Conn) net.Conn
}

// DefaultIOTimeout is the deadline applied to every cluster-plane wire
// read/write when Config.IOTimeout is left zero.
const DefaultIOTimeout = 30 * time.Second

func (c Config) withDefaults() (Config, error) {
	if c.Features <= 0 || c.Classes < 2 {
		return c, fmt.Errorf("cluster: invalid shape features=%d classes=%d", c.Features, c.Classes)
	}
	if c.Dim == 0 {
		c.Dim = 4000
	}
	if c.Sparsity == 0 {
		c.Sparsity = 0.8
	}
	if c.IOTimeout == 0 {
		c.IOTimeout = DefaultIOTimeout
	}
	return c, nil
}

// Worker is one federated device: an encoder plus a local model.
type Worker struct {
	cfg Config
	clf *core.Classifier
	log *telemetry.Logger
	// trace is the round's trace context; Push/Pull open child spans of
	// it and attach their contexts to the frames they write. Zero when
	// tracing is off.
	trace telemetry.TraceContext
}

// NewWorker constructs a worker for the shared configuration.
func NewWorker(cfg Config) (*Worker, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	enc, err := encoding.NewSparse(cfg.Features, cfg.Dim, cfg.EncoderSeed, encoding.SparseConfig{Sparsity: cfg.Sparsity})
	if err != nil {
		return nil, fmt.Errorf("cluster: worker encoder: %w", err)
	}
	clf, err := core.NewClassifier(enc, cfg.Classes)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker classifier: %w", err)
	}
	return &Worker{cfg: cfg, clf: clf, log: cfg.Logger.WithComponent("cluster")}, nil
}

// Train fits the worker's local model on its shard. With LocalEpochs
// zero only the initial bundling runs, keeping the merge exactly linear
// (merged model ≡ jointly trained model); with retraining the merge is
// the paper's approximate aggregation.
func (w *Worker) Train(x [][]float64, y []int) error {
	if w.cfg.LocalEpochs == 0 {
		samples, err := w.clf.EncodeAll(x, y)
		if err != nil {
			return err
		}
		for _, s := range samples {
			w.clf.Model().Add(s.Label, s.HV)
		}
		return nil
	}
	_, err := w.clf.Fit(x, y, w.cfg.LocalEpochs)
	return err
}

// Model exposes the worker's current model.
func (w *Worker) Model() *core.Model { return w.clf.Model() }

// Classifier exposes the worker's classifier (for evaluation).
func (w *Worker) Classifier() *core.Classifier { return w.clf }

// SetTrace binds the worker to a round trace: subsequent Push/Pull
// calls open child spans and stamp their frames with the context.
func (w *Worker) SetTrace(tc telemetry.TraceContext) { w.trace = tc }

// frameTrace returns the pointer wire.Write expects: nil for the zero
// context so untraced frames stay byte-identical to pre-trace encoding.
func frameTrace(tc telemetry.TraceContext) *telemetry.TraceContext {
	if !tc.Valid() {
		return nil
	}
	return &tc
}

// readDeadliner and writeDeadliner are the deadline facets of net.Conn
// (and net.Pipe); plain io.Readers/Writers under test pass through the
// arm helpers untouched.
type readDeadliner interface{ SetReadDeadline(time.Time) error }
type writeDeadliner interface{ SetWriteDeadline(time.Time) error }

// armReadDeadline bounds the next read sequence on r at timeout from
// now when r can carry a deadline, returning a disarm func that clears
// it once the frame is in. A stalled peer then surfaces as an
// os.ErrDeadlineExceeded-wrapped read error instead of blocking the
// goroutine forever. Non-positive timeouts disarm entirely.
func armReadDeadline(r io.Reader, timeout time.Duration) func() {
	c, ok := r.(readDeadliner)
	if !ok || timeout <= 0 {
		return func() {}
	}
	_ = c.SetReadDeadline(time.Now().Add(timeout))
	return func() { _ = c.SetReadDeadline(time.Time{}) }
}

// armWriteDeadline is armReadDeadline for the write direction.
func armWriteDeadline(w io.Writer, timeout time.Duration) func() {
	c, ok := w.(writeDeadliner)
	if !ok || timeout <= 0 {
		return func() {}
	}
	_ = c.SetWriteDeadline(time.Now().Add(timeout))
	return func() { _ = c.SetWriteDeadline(time.Time{}) }
}

// countWriter counts bytes passing through to the underlying writer.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// countReader counts bytes read from the underlying reader.
type countReader struct {
	r io.Reader
	n int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// Push writes the worker's model to the connection as a MsgModel frame.
// With a round trace bound (SetTrace), the frame carries a child trace
// context and the hop is recorded as a cluster_push span with the
// frame's wire bytes.
func (w *Worker) Push(conn io.Writer) error {
	m := w.clf.Model()
	accs := make([]hdc.Acc, m.Classes())
	for c := range accs {
		accs[c] = m.Class(c)
	}
	tc := w.trace.Child()
	sp := w.cfg.Tracer.StartSpan("cluster_push", tc)
	disarm := armWriteDeadline(conn, w.cfg.IOTimeout)
	cw := &countWriter{w: conn}
	err := wire.Write(cw, wire.Message{Header: wire.Header{Type: wire.MsgModel}, Trace: frameTrace(tc), Model: accs})
	disarm()
	sp.SetInt("wire_bytes", cw.n).End()
	if err != nil {
		w.log.WithTrace(tc).Warn("model push failed", "error", err.Error())
	} else {
		w.log.WithTrace(tc).Debug("model pushed", "wire_bytes", cw.n, "classes", len(accs))
	}
	return err
}

// Pull reads a global model frame and installs it locally. A trace
// context on the frame is recorded as a cluster_pull child span with
// the hop's wire bytes.
func (w *Worker) Pull(conn io.Reader) error {
	disarm := armReadDeadline(conn, w.cfg.IOTimeout)
	cr := &countReader{r: conn}
	msg, err := wire.Read(cr)
	disarm()
	if err != nil {
		return err
	}
	pullLog := w.log
	if msg.Trace != nil {
		tc := msg.Trace.Child()
		w.cfg.Tracer.StartSpan("cluster_pull", tc).
			SetInt("wire_bytes", cr.n).End()
		pullLog = pullLog.WithTrace(tc)
	}
	if msg.Header.Type == wire.MsgError {
		return fmt.Errorf("cluster: aggregator rejected connection: %s", msg.Text)
	}
	if msg.Header.Type != wire.MsgModel {
		return fmt.Errorf("cluster: expected model frame, got type %d", msg.Header.Type)
	}
	pullLog.Debug("global model pulled", "wire_bytes", cr.n, "classes", len(msg.Model))
	return installModel(w.clf.Model(), msg.Model)
}

func installModel(m *core.Model, accs []hdc.Acc) error {
	if len(accs) != m.Classes() {
		return fmt.Errorf("cluster: model has %d classes, frame carries %d", m.Classes(), len(accs))
	}
	for c, a := range accs {
		if err := m.SetClass(c, a); err != nil {
			return fmt.Errorf("cluster: installing class %d: %w", c, err)
		}
	}
	return nil
}

// Aggregator collects worker models into slot-indexed storage and
// merges them in fixed slot order. Earlier versions merged each model
// into the global accumulator the moment its connection finished, in
// completion order guarded only by a mutex; the slot discipline (built
// on internal/parallel's ordered reduction) makes the aggregation order
// a pure function of the slot assignment, so run-to-run aggregate
// models are structurally guaranteed identical — even if the merge
// algebra ever stops being commutative (norm equalization, scaling).
type Aggregator struct {
	dim, classes int
	pool         *parallel.Pool
	tracer       *telemetry.Tracer
	log          *telemetry.Logger
	// ioTimeout bounds every frame read/write on deadline-capable
	// connections (see Config.IOTimeout).
	ioTimeout time.Duration
	mu        sync.Mutex
	// partials[slot] is the parsed model pushed by the worker assigned
	// to slot (nil until it reports).
	partials []*core.Model
	// traces[slot] is the trace context received with slot's model frame
	// (zero when the frame was untraced), so the broadcast reply can
	// continue the same trace back down.
	traces   []telemetry.TraceContext
	received int
	// global is built lazily by the first Global call after collection,
	// reducing the partials in slot order.
	global *core.Model
}

// NewAggregator returns an empty aggregator for the given model shape
// expecting one worker model per slot.
func NewAggregator(dim, classes, slots int) (*Aggregator, error) {
	if _, err := core.NewModel(dim, classes); err != nil {
		return nil, fmt.Errorf("cluster: aggregator model: %w", err)
	}
	if slots < 1 {
		return nil, fmt.Errorf("cluster: need at least one aggregation slot, got %d", slots)
	}
	return &Aggregator{
		dim: dim, classes: classes, pool: parallel.New(0),
		ioTimeout: DefaultIOTimeout,
		partials:  make([]*core.Model, slots),
		traces:    make([]telemetry.TraceContext, slots),
	}, nil
}

// SetIOTimeout replaces the per-frame I/O deadline (default
// DefaultIOTimeout; non-positive disables deadlines).
func (a *Aggregator) SetIOTimeout(d time.Duration) { a.ioTimeout = d }

// SetTracer records aggregator-side spans (cluster_aggregate,
// cluster_broadcast) on tr; frames received with a trace context join
// the sender's trace. Nil disables aggregator-side spans.
func (a *Aggregator) SetTracer(tr *telemetry.Tracer) { a.tracer = tr }

// SetLogger attaches (or with nil, detaches) a structured logger;
// records emit under component "cluster".
func (a *Aggregator) SetLogger(log *telemetry.Logger) { a.log = log.WithComponent("cluster") }

// Global merges the collected partials in slot order and returns the
// aggregate model. The reduction is an ordered tree over the slots, so
// the result is independent of the order in which workers delivered
// their models; it is computed once, on the first call after
// collection, and shared afterwards. The slots are snapshotted under
// the lock and the reduction — which rendezvouses with the worker pool
// — runs outside it, so a slow merge never blocks concurrent
// ServeOne deliveries; if two callers race past the snapshot, the
// first result wins and both see the same model.
func (a *Aggregator) Global() *core.Model {
	a.mu.Lock()
	if a.global != nil {
		g := a.global
		a.mu.Unlock()
		return g
	}
	partials := append([]*core.Model(nil), a.partials...)
	a.mu.Unlock()

	g := a.reduceSlots(partials)

	a.mu.Lock()
	if a.global == nil {
		a.global = g
	}
	g = a.global
	a.mu.Unlock()
	return g
}

// reduceSlots builds the aggregate from a snapshot of the filled slots
// in slot order. Every stored partial already passed the shape checks
// of installModel, so construction cannot fail.
func (a *Aggregator) reduceSlots(partials []*core.Model) *core.Model {
	global, err := core.NewModel(a.dim, a.classes)
	if err != nil {
		// Unreachable: NewAggregator validated the shape.
		return nil
	}
	for c := 0; c < a.classes; c++ {
		parts := make([]hdc.Acc, 0, len(partials))
		for _, p := range partials {
			if p != nil {
				parts = append(parts, p.Class(c))
			}
		}
		if len(parts) == 0 {
			continue
		}
		if err := global.SetClass(c, a.pool.SumAccs("cluster_merge", parts)); err != nil {
			return nil
		}
	}
	return global
}

// Received reports how many worker models have been collected.
func (a *Aggregator) Received() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.received
}

// ServeOne handles one worker connection: read its model frame, store
// it in the given slot, report the outcome on merged, and — after
// release is closed (all workers have reported) — send the slot-order
// aggregate back.
func (a *Aggregator) ServeOne(conn io.ReadWriter, slot int, merged chan<- error, release <-chan struct{}) error {
	err := a.readIntoSlot(conn, slot)
	merged <- err
	if err != nil {
		// Tell the worker why its slot failed so its Pull surfaces the
		// rejection immediately instead of blocking for a broadcast that
		// will never come (or dying on an opaque deadline).
		a.reject(conn, slot, err)
		return err
	}
	<-release
	global := a.Global()
	accs := make([]hdc.Acc, a.classes)
	for c := range accs {
		accs[c] = global.Class(c)
	}
	a.mu.Lock()
	tc := a.traces[slot].Child()
	a.mu.Unlock()
	sp := a.tracer.StartSpan("cluster_broadcast", tc)
	disarm := armWriteDeadline(conn, a.ioTimeout)
	cw := &countWriter{w: conn}
	err = wire.Write(cw, wire.Message{Header: wire.Header{Type: wire.MsgModel}, Trace: frameTrace(tc), Model: accs})
	disarm()
	sp.SetInt("slot", int64(slot)).SetInt("wire_bytes", cw.n).End()
	if err != nil {
		a.log.WithTrace(tc).Warn("global model broadcast failed", "slot", slot, "error", err.Error())
	} else {
		a.log.WithTrace(tc).Debug("global model broadcast", "slot", slot, "wire_bytes", cw.n)
	}
	return err
}

// reject writes a MsgError frame naming the cause, so the peer's next
// read fails cleanly. Best effort: an unreachable peer is already gone.
func (a *Aggregator) reject(conn io.Writer, slot int, cause error) {
	disarm := armWriteDeadline(conn, a.ioTimeout)
	text := cause.Error()
	if len(text) > 512 {
		text = text[:512]
	}
	err := wire.Write(conn, wire.Message{Header: wire.Header{Type: wire.MsgError}, Text: text})
	disarm()
	if err != nil {
		a.log.Warn("slot rejection reply failed", "slot", slot, "error", err.Error())
	} else {
		a.log.Debug("slot rejected", "slot", slot, "cause", cause.Error())
	}
}

func (a *Aggregator) readIntoSlot(conn io.Reader, slot int) error {
	// Read (and thereby drain) the worker's frame before validating the
	// slot: an invalid or duplicate slot must still consume the push so
	// the connection stays in a well-defined state for the error reply.
	disarm := armReadDeadline(conn, a.ioTimeout)
	cr := &countReader{r: conn}
	msg, err := wire.Read(cr)
	disarm()
	if err != nil {
		return fmt.Errorf("cluster: aggregator read: %w", err)
	}
	if slot < 0 || slot >= len(a.partials) {
		return fmt.Errorf("cluster: aggregation slot %d out of range [0,%d)", slot, len(a.partials))
	}
	slotLog := a.log
	if msg.Trace != nil {
		tc := msg.Trace.Child()
		a.tracer.StartSpan("cluster_aggregate", tc).
			SetInt("slot", int64(slot)).SetInt("wire_bytes", cr.n).End()
		slotLog = slotLog.WithTrace(tc)
	}
	slotLog.Debug("worker model received", "slot", slot, "wire_bytes", cr.n)
	if msg.Header.Type != wire.MsgModel {
		return fmt.Errorf("cluster: aggregator expected model frame, got type %d", msg.Header.Type)
	}
	partial, err := core.NewModel(a.dim, a.classes)
	if err != nil {
		return fmt.Errorf("cluster: partial model: %w", err)
	}
	if err := installModel(partial, msg.Model); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.partials[slot] != nil {
		return fmt.Errorf("cluster: aggregation slot %d already reported", slot)
	}
	a.partials[slot] = partial
	if msg.Trace != nil {
		a.traces[slot] = *msg.Trace
	}
	a.received++
	return nil
}

// Shard is one worker's local training data.
type Shard struct {
	X [][]float64
	Y []int
}

// Federated runs a complete round over in-process pipe connections: one
// goroutine per worker trains on its shard and pushes its model; the
// aggregator merges all models and broadcasts the global one back.
// It returns the workers (each now holding the global model) and the
// aggregator's merged model.
func Federated(cfg Config, shards []Shard) ([]*Worker, *core.Model, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if len(shards) == 0 {
		return nil, nil, fmt.Errorf("cluster: no shards")
	}
	// One trace spans the whole round: every worker's push, the
	// aggregator's merges, and the broadcast all parent back to it.
	root := cfg.Tracer.NewTrace()
	rootSpan := cfg.Tracer.StartSpan("federated_round", root)
	workers := make([]*Worker, len(shards))
	for i := range workers {
		w, err := NewWorker(cfg)
		if err != nil {
			return nil, nil, err
		}
		w.SetTrace(root)
		workers[i] = w
	}
	agg, err := NewAggregator(cfg.Dim, cfg.Classes, len(shards))
	if err != nil {
		return nil, nil, err
	}
	agg.SetTracer(cfg.Tracer)
	agg.SetLogger(cfg.Logger)
	agg.SetIOTimeout(cfg.IOTimeout)
	release := make(chan struct{})
	merged := make(chan error, len(shards))
	errs := make(chan error, 2*len(shards))
	var wg sync.WaitGroup
	for i, w := range workers {
		workerEnd, aggEnd := net.Pipe()
		conn := net.Conn(workerEnd)
		if cfg.WrapWorkerConn != nil {
			conn = cfg.WrapWorkerConn(i, workerEnd)
		}
		wg.Add(2)
		go func(w *Worker, shard Shard, conn net.Conn) {
			defer wg.Done()
			defer conn.Close() //nolint:errcheck // in-process pipe
			if err := w.Train(shard.X, shard.Y); err != nil {
				errs <- err
				return
			}
			if err := w.Push(conn); err != nil {
				errs <- err
				return
			}
			if err := w.Pull(conn); err != nil {
				errs <- err
			}
		}(w, shards[i], conn)
		// The worker's shard index is its aggregation slot, so the
		// upward merge happens in shard order no matter which
		// connection finishes first.
		go func(slot int, conn net.Conn) {
			defer wg.Done()
			defer conn.Close() //nolint:errcheck // in-process pipe
			if err := agg.ServeOne(conn, slot, merged, release); err != nil {
				errs <- err
			}
		}(i, aggEnd)
	}
	// Release the broadcast once every connection has reported a merge
	// outcome (success or failure), so nobody blocks forever.
	var mergeErr error
	for i := 0; i < len(shards); i++ {
		if err := <-merged; err != nil && mergeErr == nil {
			mergeErr = err
		}
	}
	close(release)
	wg.Wait()
	roundErr := mergeErr
	if roundErr == nil {
		select {
		case roundErr = <-errs:
		default:
		}
	}
	rootSpan.SetInt("workers", int64(len(shards)))
	if roundErr != nil {
		// A failed round ends its root span with the error attached, so a
		// tail sampler keeps the whole round's trace for the post-mortem.
		rootSpan.SetStr("error", roundErr.Error())
	}
	rootSpan.End()
	cfg.Logger.WithComponent("cluster").WithTrace(root).
		Debug("federated round complete", "workers", len(shards), "merged", agg.Received())
	if roundErr != nil {
		return nil, nil, roundErr
	}
	return workers, agg.Global(), nil
}
