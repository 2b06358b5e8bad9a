package serve

import (
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"edgehd/internal/core"
	"edgehd/internal/hdc"
	"edgehd/internal/parallel"
	"edgehd/internal/rng"
	"edgehd/internal/telemetry"
	"edgehd/internal/wire"
)

const testDim = 512

// testModel builds a small trained model: ten random bundled
// hypervectors per class from a fixed seed stream.
func testModel(t *testing.T, seed uint64, classes int) *core.Model {
	t.Helper()
	m, err := core.NewModel(testDim, classes)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	for c := 0; c < classes; c++ {
		for j := 0; j < 10; j++ {
			m.Add(c, hdc.RandomBipolar(testDim, r))
		}
	}
	return m
}

// testQueries derives n random query hypervectors from a fixed seed.
func testQueries(n int) []hdc.Bipolar {
	r := rng.New(4242)
	qs := make([]hdc.Bipolar, n)
	for i := range qs {
		qs[i] = hdc.RandomBipolar(testDim, r)
	}
	return qs
}

// startServer boots a server on a loopback listener and tears it down
// with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, ln.Addr().String()
}

// dialServe opens a client connection and completes the handshake.
func dialServe(t *testing.T, addr, tenant string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	if err := wire.Write(nc, wire.Message{Header: wire.Header{Type: wire.MsgHello}, Text: tenant}); err != nil {
		t.Fatal(err)
	}
	return nc
}

// reply is one decoded server response.
type reply struct {
	busy  bool
	class int32
	conf  float64
}

// pipeline sends every query (seq = index) and then reads one reply per
// query, returning them indexed by echoed sequence number.
func pipeline(t *testing.T, nc net.Conn, queries []hdc.Bipolar) map[int32]reply {
	t.Helper()
	for i, q := range queries {
		msg := wire.Message{Header: wire.Header{Type: wire.MsgQuery, Batch: int32(i)}, Bipolar: q}
		if err := wire.Write(nc, msg); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	out := make(map[int32]reply, len(queries))
	for range queries {
		msg, err := wire.Read(nc)
		if err != nil {
			t.Fatalf("after %d replies: %v", len(out), err)
		}
		switch msg.Header.Type {
		case wire.MsgPredict:
			out[msg.Header.Batch] = reply{class: msg.Header.Class, conf: msg.Confidence}
		case wire.MsgBusy:
			out[msg.Header.Batch] = reply{busy: true}
		default:
			t.Fatalf("unexpected reply type %d (text %q)", msg.Header.Type, msg.Text)
		}
	}
	return out
}

func TestBatchedMatchesSequential(t *testing.T) {
	// The tentpole determinism contract: coalescing queries into pooled
	// batches must not change a single bit of any answer. Every reply is
	// compared against the direct sequential Model.Confidence call, at
	// worker counts 1 and 8.
	model := testModel(t, 7, 5)
	queries := testQueries(200)
	type expected struct {
		class int32
		bits  uint64
	}
	want := make([]expected, len(queries))
	for i, q := range queries {
		class, conf := model.Confidence(q)
		want[i] = expected{class: int32(class), bits: math.Float64bits(conf)}
	}
	for _, workers := range []int{1, 8} {
		reg := NewRegistry()
		if err := reg.Set("default", model); err != nil {
			t.Fatal(err)
		}
		srv, addr := startServer(t, Config{
			Registry: reg, Pool: parallel.New(workers), MaxBatch: 32, QueueDepth: 4096,
		})
		nc := dialServe(t, addr, "default")
		got := pipeline(t, nc, queries)
		if len(got) != len(queries) {
			t.Fatalf("workers=%d: %d replies for %d queries", workers, len(got), len(queries))
		}
		for i := range queries {
			r, ok := got[int32(i)]
			if !ok {
				t.Fatalf("workers=%d: no reply for seq %d", workers, i)
			}
			if r.busy {
				t.Fatalf("workers=%d: seq %d rejected despite deep queue", workers, i)
			}
			if r.class != want[i].class || math.Float64bits(r.conf) != want[i].bits {
				t.Fatalf("workers=%d seq %d: got class %d conf %x, want class %d conf %x",
					workers, i, r.class, math.Float64bits(r.conf), want[i].class, want[i].bits)
			}
		}
		if st := srv.Stats(); st.Admitted != uint64(len(queries)) || st.Replied != uint64(len(queries)) {
			t.Fatalf("workers=%d: stats %+v want %d admitted and replied", workers, st, len(queries))
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDrainUnderLoad(t *testing.T) {
	// Close must answer every admitted query before cutting connections:
	// fire queries from several connections, drain the moment everything
	// was admitted or shed, and account for every single query. After
	// the drain no server goroutine may outlive it.
	before := runtime.NumGoroutine()
	model := testModel(t, 11, 3)
	reg := NewRegistry()
	if err := reg.Set("default", model); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{
		Registry: reg, Pool: parallel.New(4), MaxBatch: 16, QueueDepth: 64,
		BatchWindow: 500 * time.Microsecond,
	})
	const conns, perConn = 4, 100
	queries := testQueries(perConn)
	var wg sync.WaitGroup
	results := make([]map[int32]reply, conns)
	for ci := 0; ci < conns; ci++ {
		nc := dialServe(t, addr, "default")
		wg.Add(1)
		go func(ci int, nc net.Conn) {
			defer wg.Done()
			results[ci] = pipeline(t, nc, queries)
		}(ci, nc)
	}
	// Drain as soon as every query has passed admission (admitted or
	// rejected) — concurrent with the clients still reading replies.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Stats()
		if st.Admitted+st.Rejected >= conns*perConn {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never completed: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Replied != st.Admitted {
		t.Fatalf("drain dropped queries: admitted %d, replied %d", st.Admitted, st.Replied)
	}
	var predicts, busys uint64
	for ci := 0; ci < conns; ci++ {
		for i := 0; i < perConn; i++ {
			r, ok := results[ci][int32(i)]
			if !ok {
				t.Fatalf("conn %d seq %d: no reply", ci, i)
			}
			if r.busy {
				busys++
			} else {
				predicts++
			}
		}
	}
	if predicts != st.Admitted || busys != st.Rejected {
		t.Fatalf("client saw %d predicts / %d busys, server reports %d admitted / %d rejected",
			predicts, busys, st.Admitted, st.Rejected)
	}
	// The accept loop exits once Accept sees the closed listener, so
	// give it a moment rather than demanding the count at once.
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked past Close: %d before the server started, %d after the drain",
				before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRegistrySwapDuringQueries(t *testing.T) {
	// A retrain swap (copy-on-write Set) races live queries under -race;
	// every reply must be exactly consistent with one of the two
	// published models — never a blend.
	modelA := testModel(t, 7, 4)
	modelB := testModel(t, 1001, 4)
	queries := testQueries(300)
	type expected struct {
		class int32
		bits  uint64
	}
	wantA := make([]expected, len(queries))
	wantB := make([]expected, len(queries))
	for i, q := range queries {
		ca, fa := modelA.Confidence(q)
		cb, fb := modelB.Confidence(q)
		wantA[i] = expected{int32(ca), math.Float64bits(fa)}
		wantB[i] = expected{int32(cb), math.Float64bits(fb)}
	}
	reg := NewRegistry()
	if err := reg.Set("default", modelA); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, Config{Registry: reg, Pool: parallel.New(4), MaxBatch: 8, QueueDepth: 1024})
	stopSwap := make(chan struct{})
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopSwap:
				return
			default:
			}
			m := modelA
			if i%2 == 0 {
				m = modelB
			}
			if err := reg.Set("default", m); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	nc := dialServe(t, addr, "default")
	got := pipeline(t, nc, queries)
	close(stopSwap)
	swapWG.Wait()
	for i := range queries {
		r, ok := got[int32(i)]
		if !ok {
			t.Fatalf("seq %d: no reply", i)
		}
		if r.busy {
			continue // shed is fine; blended answers are not
		}
		bits := math.Float64bits(r.conf)
		matchA := r.class == wantA[i].class && bits == wantA[i].bits
		matchB := r.class == wantB[i].class && bits == wantB[i].bits
		if !matchA && !matchB {
			t.Fatalf("seq %d: reply (class %d, conf %x) matches neither model", i, r.class, bits)
		}
	}
}

// blockingModel parks Confidence until released, to hold the dispatcher
// mid-batch deterministically.
type blockingModel struct {
	started chan struct{}
	release chan struct{}
}

func (m *blockingModel) Dim() int     { return testDim }
func (m *blockingModel) Classes() int { return 2 }
func (m *blockingModel) Confidence(hdc.Bipolar) (int, float64) {
	m.started <- struct{}{}
	<-m.release
	return 0, 1
}

func TestQueueFullRejectsWithBusy(t *testing.T) {
	// With the dispatcher wedged in a batch and the queue full, the next
	// query must be shed immediately with MsgBusy, not block the handler.
	bm := &blockingModel{started: make(chan struct{}, 8), release: make(chan struct{})}
	reg := NewRegistry()
	if err := reg.Set("default", bm); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{Registry: reg, MaxBatch: 1, QueueDepth: 1})
	nc := dialServe(t, addr, "default")
	q := testQueries(1)[0]
	send := func(seq int32) {
		if err := wire.Write(nc, wire.Message{Header: wire.Header{Type: wire.MsgQuery, Batch: seq}, Bipolar: q}); err != nil {
			t.Fatal(err)
		}
	}
	send(1)
	<-bm.started // dispatcher is inside the seq-1 batch
	send(2)      // fills the queue
	send(3)      // must bounce
	msg, err := wire.Read(nc)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Header.Type != wire.MsgBusy || msg.Header.Batch != 3 {
		t.Fatalf("expected MsgBusy for seq 3, got type %d seq %d", msg.Header.Type, msg.Header.Batch)
	}
	if st := srv.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected counter %d, want 1", st.Rejected)
	}
	close(bm.release)
	for _, wantSeq := range []int32{1, 2} {
		msg, err := wire.Read(nc)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Header.Type != wire.MsgPredict || msg.Header.Batch != wantSeq {
			t.Fatalf("expected MsgPredict seq %d, got type %d seq %d", wantSeq, msg.Header.Type, msg.Header.Batch)
		}
	}
}

func TestUnknownTenantRejected(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Set("default", testModel(t, 7, 2)); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, Config{Registry: reg})
	nc := dialServe(t, addr, "nobody")
	msg, err := wire.Read(nc)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Header.Type != wire.MsgError || !strings.Contains(msg.Text, "unknown tenant") {
		t.Fatalf("expected unknown-tenant MsgError, got type %d text %q", msg.Header.Type, msg.Text)
	}
}

func TestDimensionMismatchRejected(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Set("default", testModel(t, 7, 2)); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, Config{Registry: reg})
	nc := dialServe(t, addr, "default")
	bad := hdc.RandomBipolar(testDim/2, rng.New(1))
	if err := wire.Write(nc, wire.Message{Header: wire.Header{Type: wire.MsgQuery, Batch: 1}, Bipolar: bad}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Read(nc)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Header.Type != wire.MsgError || !strings.Contains(msg.Text, "dim") {
		t.Fatalf("expected dim-mismatch MsgError, got type %d text %q", msg.Header.Type, msg.Text)
	}
}

func TestReadyAndIdempotentClose(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Set("default", testModel(t, 7, 2)); err != nil {
		t.Fatal(err)
	}
	srv, _ := startServer(t, Config{Registry: reg})
	if err := srv.Ready(); err != nil {
		t.Fatalf("server not ready while serving: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Ready(); err == nil {
		t.Fatal("server ready after Close")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestServeAfterCloseReturns(t *testing.T) {
	// A listener handed to Serve after Close has snapshotted the
	// listener set must still be closed, or Serve parks in Accept.
	reg := NewRegistry()
	if err := reg.Set("default", testModel(t, 7, 2)); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve after Close still blocked in Accept after 2s")
	}
}

func TestServeTelemetryPlane(t *testing.T) {
	// The full observability surface of the serving path: per-tenant
	// query counters, the admission queue-depth gauge, serve_query root
	// spans, and latency observations carrying trace-linked exemplars.
	model := testModel(t, 7, 3)
	reg := NewRegistry()
	for _, tenant := range []string{"alpha", "beta"} {
		if err := reg.Set(tenant, model); err != nil {
			t.Fatal(err)
		}
	}
	treg := telemetry.New()
	tracer := telemetry.NewTracer(256, treg)
	smp := telemetry.NewSampler(treg, telemetry.SamplerConfig{})
	tracer.SetSampler(smp)
	srv, addr := startServer(t, Config{
		Registry: reg, Pool: parallel.New(2), MaxBatch: 8, QueueDepth: 256,
		Telemetry: treg, Tracer: tracer,
	})
	qa, qb := testQueries(20), testQueries(5)
	ra := pipeline(t, dialServe(t, addr, "alpha"), qa)
	rb := pipeline(t, dialServe(t, addr, "beta"), qb)
	if len(ra) != len(qa) || len(rb) != len(qb) {
		t.Fatalf("replies %d/%d, want %d/%d", len(ra), len(rb), len(qa), len(qb))
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	if v := treg.Counter("serve_tenant_queries_total", telemetry.L("tenant", "alpha")).Value(); v != int64(len(qa)) {
		t.Fatalf("alpha tenant counter = %d, want %d", v, len(qa))
	}
	if v := treg.Counter("serve_tenant_queries_total", telemetry.L("tenant", "beta")).Value(); v != int64(len(qb)) {
		t.Fatalf("beta tenant counter = %d, want %d", v, len(qb))
	}
	if d := treg.Gauge("serve_queue_depth").Value(); d != 0 {
		t.Fatalf("queue depth after drain = %v, want 0", d)
	}
	// Every admitted query ended a serve_query root span.
	spanHist := treg.Histogram("span_seconds", telemetry.L("span", "serve_query"))
	if got := spanHist.Count(); got != int64(len(qa)+len(qb)) {
		t.Fatalf("serve_query spans = %d, want %d", got, len(qa)+len(qb))
	}
	last := tracer.Last("serve_query")
	if last == nil || last.TraceID == 0 || last.ParentID != 0 {
		t.Fatalf("serve_query span not a traced root: %+v", last)
	}
	if tn, ok := last.Attr("tenant").(string); !ok || (tn != "alpha" && tn != "beta") {
		t.Fatalf("serve_query tenant attr = %v", last.Attr("tenant"))
	}
	if _, ok := last.Int64Attr("batch_size"); !ok {
		t.Fatalf("serve_query missing batch_size attr: %+v", last.Attrs)
	}
	// The latency histogram carries exemplars linking buckets to traces.
	lat := treg.Histogram("serve_latency_seconds")
	if lat.Count() != int64(len(qa)+len(qb)) {
		t.Fatalf("latency observations = %d", lat.Count())
	}
	found := false
	for _, ex := range lat.Exemplars(telemetry.ExportBounds()) {
		if ex.Valid && ex.TraceID != 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("serve latency carries no trace exemplar")
	}
}

func TestServeShedKeepsTraceAndCounts(t *testing.T) {
	// A query shed with MsgBusy must surface everywhere at once: the
	// reject counter, a serve_shed root span, and a sampler keep with
	// reason "shed".
	bm := &blockingModel{started: make(chan struct{}, 8), release: make(chan struct{})}
	reg := NewRegistry()
	if err := reg.Set("default", bm); err != nil {
		t.Fatal(err)
	}
	treg := telemetry.New()
	tracer := telemetry.NewTracer(64, treg)
	smp := telemetry.NewSampler(treg, telemetry.SamplerConfig{})
	tracer.SetSampler(smp)
	_, addr := startServer(t, Config{
		Registry: reg, MaxBatch: 1, QueueDepth: 1, Telemetry: treg, Tracer: tracer,
	})
	nc := dialServe(t, addr, "default")
	q := testQueries(1)[0]
	send := func(seq int32) {
		if err := wire.Write(nc, wire.Message{Header: wire.Header{Type: wire.MsgQuery, Batch: seq}, Bipolar: q}); err != nil {
			t.Fatal(err)
		}
	}
	send(1)
	<-bm.started
	send(2)
	send(3) // queue full: shed
	msg, err := wire.Read(nc)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Header.Type != wire.MsgBusy {
		t.Fatalf("expected MsgBusy, got type %d", msg.Header.Type)
	}
	if v := treg.Counter("serve_rejects_total").Value(); v != 1 {
		t.Fatalf("rejects counter = %d, want 1", v)
	}
	kept := smp.Kept()
	if len(kept) != 1 || kept[0].Reason != telemetry.KeepShed || kept[0].Root != "serve_shed" {
		t.Fatalf("sampler keeps = %+v, want one serve_shed with reason shed", kept)
	}
	close(bm.release)
}

func TestRegistryCopyOnWrite(t *testing.T) {
	reg := NewRegistry()
	if _, ok := reg.Get("a"); ok {
		t.Fatal("empty registry resolved a tenant")
	}
	ma, mb := testModel(t, 1, 2), testModel(t, 2, 2)
	if err := reg.Set("", ma); err == nil {
		t.Fatal("empty tenant accepted")
	}
	if err := reg.Set("a", nil); err == nil {
		t.Fatal("nil model accepted")
	}
	if err := reg.Set("a", ma); err != nil {
		t.Fatal(err)
	}
	if err := reg.Set("b", mb); err != nil {
		t.Fatal(err)
	}
	got, ok := reg.Get("a")
	if !ok || got != Model(ma) {
		t.Fatal("tenant a did not resolve to its model")
	}
	if err := reg.Set("a", mb); err != nil {
		t.Fatal(err)
	}
	// The old snapshot keeps resolving for holders; new Gets see the swap.
	if swapped, _ := reg.Get("a"); swapped != Model(mb) {
		t.Fatal("swap not visible to a fresh Get")
	}
	if got != Model(ma) {
		t.Fatal("snapshot mutated by Set")
	}
	reg.Drop("a")
	if _, ok := reg.Get("a"); ok {
		t.Fatal("dropped tenant still resolves")
	}
	names := reg.Tenants()
	if len(names) != 1 || names[0] != "b" {
		t.Fatalf("tenants %v, want [b]", names)
	}
	reg.Drop("missing") // no-op
}
