// Package serve is EdgeHD's query-serving front end: a wire-protocol
// server that answers MsgQuery frames with confidence-scored
// predictions (§IV-C) at high throughput by coalescing concurrent
// queries into pooled batches.
//
// Connections speak the internal/wire protocol. A client opens with a
// MsgHello frame naming its tenant, then pipelines MsgQuery frames
// (Header.Batch carries a client-chosen sequence number); the server
// answers each with a MsgPredict frame echoing the sequence number, or
// a MsgBusy frame when admission control sheds it. Terminal failures —
// unknown tenant, dimension mismatch, protocol violation — arrive as a
// MsgError frame, after which the connection is dead.
//
// Three mechanisms bound the work in flight:
//
//   - Batching: a dispatcher drains the admission queue into batches of
//     at most MaxBatch queries, closing a batch early after BatchWindow
//     without a new arrival. Each batch fans over the parallel pool's
//     chunked execution, so per-query results are byte-identical to the
//     sequential path at any worker count.
//   - Admission control: the queue holds at most QueueDepth admitted
//     queries; when it is full (or the server is draining) the query is
//     rejected immediately with MsgBusy instead of queueing unbounded.
//   - Graceful drain: Close stops admission, waits for every admitted
//     query to be answered, then shuts the dispatcher and connections
//     down. Wire it to process teardown with telemetry.Lifecycle:
//     life.Defer(func() { _ = srv.Close() }).
//
// Models are resolved per query through a copy-on-write Registry, so a
// retrain swaps a tenant's model between queries without pausing the
// server or racing in-flight batches.
package serve

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"edgehd/internal/hdc"
	"edgehd/internal/parallel"
	"edgehd/internal/telemetry"
	"edgehd/internal/wire"
)

// Config shapes a Server. The zero value of every field except
// Registry is usable; defaults are applied by NewServer.
type Config struct {
	// Registry resolves tenant names to serving models. Required.
	Registry *Registry
	// Pool executes batch classification; nil or 1-worker runs
	// sequentially. Chunk layout depends only on batch size, so results
	// are byte-identical at any worker count.
	Pool *parallel.Pool
	// MaxBatch caps how many queries one batch coalesces. Default 64.
	MaxBatch int
	// BatchWindow is how long the dispatcher waits for more queries
	// after the first before closing a partial batch. Default 2ms.
	BatchWindow time.Duration
	// QueueDepth bounds the admission queue; a query arriving on a full
	// queue is rejected with MsgBusy. Default 1024.
	QueueDepth int
	// IOTimeout bounds every reply write (and the handshake read) on a
	// deadline-capable connection, so one stalled client cannot wedge a
	// dispatch cycle. Default 30s; negative disables.
	IOTimeout time.Duration
	// IdleTimeout bounds how long a connection may sit between query
	// frames. Default 0 (no idle limit; the client closes).
	IdleTimeout time.Duration
	// MaxQueryPayload caps the payload length accepted on the query
	// loop, tightening wire.MaxPayload to serving-sized frames.
	// Default 1 MiB (a 4M-dimension query; far above any real model).
	MaxQueryPayload int
	// SLOObjective and SLOTarget define the serving SLO: SLOTarget of
	// queries must complete within SLOObjective seconds. Defaults 0.05s
	// at 0.99. Published as slo_* gauges when Telemetry is set.
	SLOObjective float64
	SLOTarget    float64
	// Telemetry publishes serve_* metrics and the serving SLO. Nil
	// disables instrumentation.
	Telemetry *telemetry.Registry
	// Tracer opens one serve_query root span per admitted query
	// (tenant, class, batch size; admission-to-reply duration) and a
	// serve_shed span per rejection. Nil disables tracing. When the
	// tracer carries a telemetry.Sampler, head-dropped queries skip span
	// materialization entirely and slow/errored/shed queries are
	// retained for /debug/traces and flight bundles.
	Tracer *telemetry.Tracer
	// Logger receives structured connection/drain records. Nil silences.
	Logger *telemetry.Logger
}

func (c Config) withDefaults() (Config, error) {
	if c.Registry == nil {
		return c, fmt.Errorf("serve: config needs a Registry")
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.IOTimeout == 0 {
		c.IOTimeout = 30 * time.Second
	}
	if c.MaxQueryPayload <= 0 {
		c.MaxQueryPayload = 1 << 20
	}
	if c.SLOObjective == 0 {
		c.SLOObjective = 0.05
	}
	if c.SLOTarget == 0 {
		c.SLOTarget = 0.99
	}
	return c, nil
}

// helloLimit caps the handshake frame: a tenant name, never a model.
const helloLimit = 2 << 10

// maxErrorText caps the text echoed back in MsgError replies.
const maxErrorText = 512

// Stats is a point-in-time snapshot of the server's query counters.
type Stats struct {
	// Admitted queries entered the batch queue (each is answered with
	// exactly one MsgPredict, even across a drain).
	Admitted uint64
	// Rejected queries were shed with MsgBusy by admission control.
	Rejected uint64
	// Replied counts MsgPredict frames successfully written. A reply
	// is counted just before its write (and uncounted if the write
	// fails), so a client that has read a reply always sees it here.
	Replied uint64
	// Batches counts dispatched batches; Admitted/Batches is the mean
	// coalescing factor.
	Batches uint64
}

// request is one admitted query: the connection to answer on, the
// client's sequence number, the query hypervector, and the model
// snapshot it will be scored against.
type request struct {
	c     *srvConn
	seq   int32
	q     hdc.Bipolar
	model Model
	stop  func()                // latency timer, armed at admission
	sp    *telemetry.SpanHandle // serve_query root span (nil untraced)
}

// Server accepts wire-protocol connections and answers queries in
// pooled batches. Construct with NewServer; run Serve (per listener)
// or ServeConn (per connection) from the caller's goroutines; Close
// drains gracefully.
type Server struct {
	cfg Config
	log *telemetry.Logger

	queue chan request
	stop  chan struct{} // closed after drain: dispatcher exit signal

	// admitMu pairs the draining flag with inflight.Add: admission holds
	// the read side, so once Close flips draining under the write lock
	// no new inflight increments can race its Wait.
	admitMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	dispatchWG sync.WaitGroup
	connWG     sync.WaitGroup

	mu   sync.Mutex
	lns  map[net.Listener]struct{}
	open map[net.Conn]struct{}

	admitted atomic.Uint64
	rejected atomic.Uint64
	replied  atomic.Uint64
	batches  atomic.Uint64

	queries    *telemetry.Counter
	rejects    *telemetry.Counter
	connGauge  *telemetry.Gauge
	queueGauge *telemetry.Gauge
	batchHist  *telemetry.Histogram
	latHist    *telemetry.Histogram
}

// NewServer validates cfg, registers the serve_* metric family, and
// starts the batch dispatcher.
func NewServer(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		log:   cfg.Logger.WithComponent("serve"),
		queue: make(chan request, cfg.QueueDepth),
		stop:  make(chan struct{}),
		lns:   make(map[net.Listener]struct{}),
		open:  make(map[net.Conn]struct{}),
	}
	if reg := cfg.Telemetry; reg != nil {
		reg.SetHelp("serve_queries_total", "queries admitted to the batch queue")
		reg.SetHelp("serve_rejects_total", "queries shed with MsgBusy by admission control")
		reg.SetHelp("serve_connections", "currently open serving connections")
		reg.SetHelp("serve_batch_size", "queries coalesced per dispatched batch")
		reg.SetHelp("serve_latency_seconds", "admission-to-reply latency of served queries")
		reg.SetHelp("serve_queue_depth", "queries sitting in the admission queue")
		reg.SetHelp("serve_tenant_queries_total", "query frames received per tenant")
		s.queries = reg.Counter("serve_queries_total")
		s.rejects = reg.Counter("serve_rejects_total")
		s.connGauge = reg.Gauge("serve_connections")
		s.queueGauge = reg.Gauge("serve_queue_depth")
		s.batchHist = reg.Histogram("serve_batch_size")
		s.latHist = reg.Histogram("serve_latency_seconds")
		if _, err := telemetry.NewSLO(reg, "serve_latency", s.latHist, cfg.SLOObjective, cfg.SLOTarget); err != nil {
			return nil, err
		}
	}
	s.dispatchWG.Add(1)
	go func() {
		defer s.dispatchWG.Done()
		s.dispatch()
	}()
	return s, nil
}

// Stats snapshots the query counters.
func (s *Server) Stats() Stats {
	return Stats{
		Admitted: s.admitted.Load(),
		Rejected: s.rejected.Load(),
		Replied:  s.replied.Load(),
		Batches:  s.batches.Load(),
	}
}

func (s *Server) isDraining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// Serve accepts connections on ln until Close (which closes the
// listener) or a non-drain accept error. Run it on its own goroutine;
// it handles each connection concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	// Close sets draining before it snapshots lns, so a listener
	// registered after that snapshot is closed here instead.
	if s.isDraining() {
		_ = ln.Close()
		return nil
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			if err := s.ServeConn(nc); err != nil && !s.isDraining() {
				s.log.Warn("connection failed", "remote", nc.RemoteAddr().String(), "error", err.Error())
			}
		}()
	}
}

// srvConn wraps one client connection with a write mutex so batch
// replies, busy rejections, and error frames from different goroutines
// interleave at frame granularity.
type srvConn struct {
	nc        net.Conn
	tenant    string
	ioTimeout time.Duration
	// queries is the connection's serve_tenant_queries_total{tenant}
	// counter, resolved once at handshake so the query loop never takes
	// the registry's label-lookup path.
	queries *telemetry.Counter
	wmu     sync.Mutex
}

func (c *srvConn) write(m wire.Message) error {
	c.wmu.Lock() //hdlint:allow lock-across-io the mutex exists to serialize frame writes; the write deadline bounds the hold
	defer c.wmu.Unlock()
	disarm := armWriteDeadline(c.nc, c.ioTimeout)
	err := wire.Write(c.nc, m)
	disarm()
	return err
}

// fail sends a terminal MsgError naming the cause (best effort) and
// returns the cause for the handler to surface.
func (c *srvConn) fail(cause error) error {
	text := cause.Error()
	if len(text) > maxErrorText {
		text = text[:maxErrorText]
	}
	_ = c.write(wire.Message{Header: wire.Header{Type: wire.MsgError}, Text: text})
	return cause
}

// ServeConn runs one connection's handshake and query loop to
// completion. It returns nil on a clean client close (EOF or MsgDone)
// and on connections cut by a server drain.
func (s *Server) ServeConn(nc net.Conn) error {
	s.mu.Lock()
	s.open[nc] = struct{}{}
	s.mu.Unlock()
	s.connGauge.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.open, nc)
		s.mu.Unlock()
		s.connGauge.Add(-1)
		_ = nc.Close()
	}()
	c := &srvConn{nc: nc, ioTimeout: s.cfg.IOTimeout}

	// Handshake: the first frame names the tenant. The handshake read is
	// deadline-bounded even when IdleTimeout is off — a connection that
	// never identifies itself should not pin a handler.
	disarm := armReadDeadline(nc, s.cfg.IOTimeout)
	hello, err := wire.ReadLimit(nc, helloLimit)
	disarm()
	if err != nil {
		return fmt.Errorf("serve: handshake read: %w", err)
	}
	if hello.Header.Type != wire.MsgHello {
		return c.fail(fmt.Errorf("serve: expected MsgHello, got frame type %d", hello.Header.Type))
	}
	if _, ok := s.cfg.Registry.Get(hello.Text); !ok {
		return c.fail(fmt.Errorf("serve: unknown tenant %q", hello.Text))
	}
	c.tenant = hello.Text
	if reg := s.cfg.Telemetry; reg != nil {
		c.queries = reg.Counter("serve_tenant_queries_total", telemetry.L("tenant", c.tenant))
	}
	s.log.Debug("connection opened", "tenant", c.tenant)

	for {
		disarm := armReadDeadline(nc, s.cfg.IdleTimeout)
		msg, err := wire.ReadLimit(nc, s.cfg.MaxQueryPayload)
		disarm()
		if err != nil {
			if errors.Is(err, io.EOF) || s.isDraining() {
				return nil
			}
			return fmt.Errorf("serve: query read: %w", err)
		}
		switch msg.Header.Type {
		case wire.MsgDone:
			return nil
		case wire.MsgQuery:
			c.queries.Inc()
			// Per-query registry snapshot: a copy-on-write Set between
			// two queries on this connection takes effect immediately.
			model, ok := s.cfg.Registry.Get(c.tenant)
			if !ok {
				return c.fail(fmt.Errorf("serve: tenant %q no longer published", c.tenant))
			}
			if msg.Bipolar.Dim() != model.Dim() {
				return c.fail(fmt.Errorf("serve: query dim %d != model dim %d for tenant %q",
					msg.Bipolar.Dim(), model.Dim(), c.tenant))
			}
			if !s.admit(request{c: c, seq: msg.Header.Batch, q: msg.Bipolar, model: model}) {
				s.rejected.Add(1)
				s.rejects.Inc()
				// A shed-attributed root span: a tail sampler retains the
				// trace under its "shed" reason, so /debug/traces and flight
				// bundles show who was turned away and when.
				s.cfg.Tracer.StartSpan("serve_shed", s.cfg.Tracer.NewTrace()).
					SetStr("tenant", c.tenant).SetInt("shed", 1).End()
				if err := c.write(wire.Message{Header: wire.Header{Type: wire.MsgBusy, Batch: msg.Header.Batch}}); err != nil {
					return fmt.Errorf("serve: busy reply: %w", err)
				}
			}
		default:
			return c.fail(fmt.Errorf("serve: unexpected frame type %d on query loop", msg.Header.Type))
		}
	}
}

// admit enqueues r unless the server is draining or the queue is full.
// The inflight increment happens under the admission read lock, so a
// concurrent Close either sees the increment or rejects the query —
// never a query admitted after the drain began.
func (s *Server) admit(r request) bool {
	s.admitMu.RLock() //hdlint:allow lock-across-io the enqueue select is non-blocking (default rejects); the lock pairs the inflight increment with the draining check
	defer s.admitMu.RUnlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	// One trace per admitted query; a head-sampling tracer hands out a
	// zero context here and both the exemplar (traceID 0) and the span
	// (nil handle) quietly degrade to the untraced path.
	tc := s.cfg.Tracer.NewTrace()
	r.stop = s.latHist.StartTimerExemplar(tc.TraceID)
	r.sp = s.cfg.Tracer.StartSpan("serve_query", tc)
	r.sp.SetStr("tenant", r.c.tenant)
	select {
	case s.queue <- r:
		s.admitted.Add(1)
		s.queries.Inc()
		s.queueGauge.Add(1)
		return true
	default:
		// Never Ended, the abandoned span is simply never recorded.
		s.inflight.Done()
		return false
	}
}

// dispatch is the batching loop: block for one query, coalesce more up
// to MaxBatch/BatchWindow, execute the batch over the pool, reply.
func (s *Server) dispatch() {
	for {
		var first request
		select {
		case first = <-s.queue:
			s.queueGauge.Add(-1)
		case <-s.stop:
			return
		}
		s.runBatch(s.collect(first))
	}
}

// collect coalesces queued queries behind first until the batch is full
// or BatchWindow passes without the batch filling.
func (s *Server) collect(first request) []request {
	batch := append(make([]request, 0, s.cfg.MaxBatch), first)
	// The batch window is wall-clock by design; it shapes only *which*
	// queries share a batch, never any query's result (per-item scoring
	// is independent and chunk layout depends only on batch size).
	timer := time.NewTimer(s.cfg.BatchWindow) //hdlint:allow det-rand batching window is scheduling, not data
	defer timer.Stop()
	for len(batch) < s.cfg.MaxBatch {
		select {
		case r := <-s.queue:
			s.queueGauge.Add(-1)
			batch = append(batch, r)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// runBatch scores the batch over the pool and writes one reply per
// query. Scoring fans over chunk workers; replies are written from this
// goroutine in batch order, so each connection sees its replies in the
// order its queries were admitted.
func (s *Server) runBatch(batch []request) {
	s.batches.Add(1)
	s.batchHist.Observe(float64(len(batch)))
	type result struct {
		class int32
		conf  float64
	}
	res := make([]result, len(batch))
	s.cfg.Pool.RunChunks("serve_batch", parallel.Chunks(len(batch)), func(_ int, sp parallel.Span) {
		for i := sp.Lo; i < sp.Hi; i++ {
			class, conf := batch[i].model.Confidence(batch[i].q)
			res[i] = result{class: int32(class), conf: conf}
		}
	})
	for i := range batch {
		r := batch[i]
		s.replied.Add(1) // before the write; see Stats.Replied
		err := r.c.write(wire.Message{
			Header:     wire.Header{Type: wire.MsgPredict, Class: res[i].class, Batch: r.seq},
			Confidence: res[i].conf,
		})
		if err == nil {
			r.sp.SetInt("class", int64(res[i].class)).SetInt("batch_size", int64(len(batch)))
		} else {
			s.replied.Add(^uint64(0))
			// The error attribute makes the root span a tail-sampler keep.
			r.sp.SetStr("error", err.Error())
			s.log.Warn("reply write failed", "tenant", r.c.tenant, "seq", r.seq, "error", err.Error())
		}
		r.stop()
		r.sp.End()
		s.inflight.Done()
	}
}

// Close drains the server: stop admitting, answer everything already
// admitted, then stop the dispatcher and close listeners/connections.
// Idempotent; safe from a telemetry.Lifecycle Defer.
func (s *Server) Close() error {
	s.admitMu.Lock()
	if s.draining {
		s.admitMu.Unlock()
		return nil
	}
	s.draining = true
	s.admitMu.Unlock()
	s.mu.Lock()
	lns := make([]net.Listener, 0, len(s.lns))
	for ln := range s.lns {
		lns = append(lns, ln)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		_ = ln.Close()
	}
	s.inflight.Wait() // every admitted query answered
	close(s.stop)     // queue is empty now; dispatcher can exit
	s.dispatchWG.Wait()
	s.mu.Lock()
	open := make([]net.Conn, 0, len(s.open))
	for nc := range s.open {
		open = append(open, nc)
	}
	s.mu.Unlock()
	for _, nc := range open {
		_ = nc.Close() // unblock handlers parked in Read
	}
	s.connWG.Wait()
	st := s.Stats()
	s.log.Info("server drained",
		"admitted", st.Admitted, "rejected", st.Rejected, "replied", st.Replied, "batches", st.Batches)
	return nil
}

// armReadDeadline / armWriteDeadline bound one frame's I/O on a
// deadline-capable connection, mirroring internal/cluster's discipline.
// Deadline arithmetic is wall-clock by necessity and never feeds the
// numeric pipeline.
func armReadDeadline(r io.Reader, timeout time.Duration) func() {
	c, ok := r.(interface{ SetReadDeadline(time.Time) error })
	if !ok || timeout <= 0 {
		return func() {}
	}
	_ = c.SetReadDeadline(time.Now().Add(timeout)) //hdlint:allow det-rand I/O deadline, not data
	return func() { _ = c.SetReadDeadline(time.Time{}) }
}

func armWriteDeadline(w io.Writer, timeout time.Duration) func() {
	c, ok := w.(interface{ SetWriteDeadline(time.Time) error })
	if !ok || timeout <= 0 {
		return func() {}
	}
	_ = c.SetWriteDeadline(time.Now().Add(timeout)) //hdlint:allow det-rand I/O deadline, not data
	return func() { _ = c.SetWriteDeadline(time.Time{}) }
}
