// Package scenario is a deterministic, seeded adversarial-condition
// engine for the EdgeHD planes: it scripts named fault scenarios —
// node churn, straggler gateways, bursty loss, partitions, flapping
// bandwidth, duplicated/reordered/truncated wire frames — against
// internal/netsim's virtual clock and internal/cluster's live rounds,
// and machine-checks each one: accuracy within a per-scenario floor,
// traced wire bytes reconciling exactly against the byte ledgers,
// bounded recovery after fault clearance, and zero goroutine or heap
// leaks. Every draw flows through internal/rng, so a scenario's result
// is a pure function of its seed at any worker count.
package scenario

import (
	"net"
	"sync"
	"time"

	"edgehd/internal/wire"
)

// Action is what the fault layer does with one complete wire frame.
type Action int

const (
	// Pass forwards the frame unmodified.
	Pass Action = iota
	// Duplicate forwards the frame twice back to back.
	Duplicate
	// Hold retains the frame and emits it after the next complete
	// frame — an in-stream reorder.
	Hold
	// Truncate forwards only the first half of the frame and discards
	// the rest; on a FaultConn the connection then closes, so the peer
	// sees a mid-frame EOF instead of a stall.
	Truncate
	// Drop discards the frame entirely.
	Drop
)

// Plan decides the action for the n-th complete frame (0-based) seen
// by one fault layer. Plans are pure functions of their inputs so the
// fault sequence replays identically run to run.
type Plan func(frame int) Action

// PassPlan forwards everything — the identity fault layer.
func PassPlan(int) Action { return Pass }

// Wire framing geometry, mirrored from internal/wire: a fixed header
// (type byte, payload length, class count, batch count), an optional
// 24-byte trace block flagged by wire.TraceFlag in the type byte, then
// the payload. TestFaultWriterTracksWireFraming pins the mirror to the
// real encoder so drift fails loudly.
const (
	frameHeaderBytes = 1 + 4 + 4 + 4
	frameTraceBytes  = 3 * 8
)

// FaultStats counts the traffic a fault layer saw and emitted, the
// raw material of the engine's byte-conservation assertions.
type FaultStats struct {
	FramesIn   int64
	FramesOut  int64
	BytesIn    int64
	BytesOut   int64
	Duplicated int64
	Held       int64
	Truncated  int64
	Dropped    int64
	// Passthrough reports the layer gave up framing (a length field
	// beyond wire.MaxPayload — garbage in) and now forwards raw bytes.
	Passthrough bool
}

// FaultWriter is the synchronous frame-transform core: bytes written
// in are parsed into wire frames, each complete frame is transformed
// by the plan, and results are handed to emit in order. It is the unit
// the fuzz target drives directly; FaultConn wraps it onto a net.Conn.
type FaultWriter struct {
	plan Plan
	emit func([]byte)
	// onTruncate, when non-nil, fires after a truncated frame's prefix
	// is emitted (FaultConn closes the inner conn there).
	onTruncate func()

	buf     []byte // undecoded tail of the input stream
	held    []byte // frame retained by Hold
	frame   int    // frames parsed so far
	stats   FaultStats
	rawMode bool // framing abandoned: forward everything
}

// NewFaultWriter builds a fault layer feeding emit. A nil plan passes
// everything through.
func NewFaultWriter(plan Plan, emit func([]byte)) *FaultWriter {
	if plan == nil {
		plan = PassPlan
	}
	return &FaultWriter{plan: plan, emit: emit}
}

// Stats returns a snapshot of the traffic counters.
func (f *FaultWriter) Stats() FaultStats { return f.stats }

// Write feeds stream bytes into the fault layer. It always accepts the
// full slice: frames are transformed as they complete, partial frames
// wait in the buffer.
func (f *FaultWriter) Write(p []byte) (int, error) {
	f.stats.BytesIn += int64(len(p))
	if f.rawMode {
		f.send(p)
		return len(p), nil
	}
	f.buf = append(f.buf, p...)
	for {
		n, ok := f.frameLen(f.buf)
		if !ok {
			if f.rawMode {
				// Hostile length: flush everything raw, stay raw.
				f.send(f.buf)
				f.buf = nil
			}
			return len(p), nil
		}
		if n > len(f.buf) {
			return len(p), nil // frame incomplete
		}
		frame := append([]byte(nil), f.buf[:n]...)
		f.buf = append(f.buf[:0], f.buf[n:]...)
		f.apply(frame)
	}
}

// frameLen returns the total encoded length of the frame at the head
// of b, or ok=false when the header is still incomplete. A length
// field beyond wire.MaxPayload flips the layer into raw passthrough.
func (f *FaultWriter) frameLen(b []byte) (int, bool) {
	if len(b) < frameHeaderBytes {
		return 0, false
	}
	payload := int(uint32(b[1]) | uint32(b[2])<<8 | uint32(b[3])<<16 | uint32(b[4])<<24)
	if payload > wire.MaxPayload {
		f.rawMode = true
		f.stats.Passthrough = true
		return 0, false
	}
	n := frameHeaderBytes + payload
	if b[0]&wire.TraceFlag != 0 {
		n += frameTraceBytes
	}
	return n, true
}

// apply runs the plan on one complete frame.
func (f *FaultWriter) apply(frame []byte) {
	act := f.plan(f.frame)
	f.frame++
	f.stats.FramesIn++
	switch act {
	case Duplicate:
		f.stats.Duplicated++
		f.emitFrame(frame)
		f.emitFrame(append([]byte(nil), frame...))
	case Hold:
		f.stats.Held++
		if f.held != nil {
			// Second hold in a row: the earlier frame leaves first.
			f.emitFrame(f.held)
		}
		f.held = frame
		return
	case Truncate:
		f.stats.Truncated++
		f.send(frame[:len(frame)/2])
		if f.onTruncate != nil {
			f.onTruncate()
		}
	case Drop:
		f.stats.Dropped++
	default:
		f.emitFrame(frame)
	}
	if f.held != nil {
		held := f.held
		f.held = nil
		f.emitFrame(held)
	}
}

func (f *FaultWriter) emitFrame(frame []byte) {
	f.stats.FramesOut++
	f.send(frame)
}

func (f *FaultWriter) send(b []byte) {
	if len(b) == 0 {
		return
	}
	f.stats.BytesOut += int64(len(b))
	f.emit(b)
}

// Flush releases a held frame and forwards any incomplete trailing
// bytes unmodified, so closing mid-frame models truncation rather than
// silent loss.
func (f *FaultWriter) Flush() {
	if f.held != nil {
		held := f.held
		f.held = nil
		f.emitFrame(held)
	}
	if len(f.buf) > 0 {
		f.send(f.buf)
		f.buf = nil
	}
}

// Gate releases conns in a scripted order: the pump of slot s blocks
// in Wait until every slot ranked before s has passed. This scrambles
// cross-connection frame arrival — the only reorder that means
// anything for the cluster plane's one-frame-per-direction rounds —
// while each stream stays internally intact.
type Gate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	rank   map[int]int
	passed int
}

// NewGate builds a gate releasing slots in the given order (order[k]
// is the slot released k-th). Slots absent from order pass freely.
func NewGate(order []int) *Gate {
	g := &Gate{rank: make(map[int]int, len(order))}
	g.cond = sync.NewCond(&g.mu)
	for k, slot := range order {
		g.rank[slot] = k
	}
	return g
}

// Wait blocks until every slot ranked before this one has passed.
func (g *Gate) Wait(slot int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.rank[slot]
	if !ok {
		return
	}
	for g.passed < r {
		g.cond.Wait()
	}
}

// Pass marks the slot released, waking later-ranked waiters. Each
// slot must pass exactly once (FaultConn guarantees this via Close).
func (g *Gate) Pass(slot int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.rank[slot]; !ok {
		return
	}
	g.passed++
	g.cond.Broadcast()
}

// queueCap bounds the pump queue. Cluster rounds move one frame per
// direction, so even a duplicating plan stays far below this; a full
// queue simply backpressures the writer.
const queueCap = 128

// pumpItem is one emission travelling from FaultWriter to the pump.
type pumpItem struct {
	b []byte
	// closeAfter closes the inner conn once b is written — the
	// deterministic half of Truncate (peer sees mid-frame EOF now, not
	// a deadline later).
	closeAfter bool
}

// FaultConn wraps one side of a net.Conn with a FaultWriter: writes
// are parsed into frames, transformed by the plan, and forwarded to
// the inner conn by a pump goroutine (net.Pipe is synchronous, so a
// duplicate frame must not block the writer on a peer that reads
// exactly one). Reads pass straight through. Close flushes, joins the
// pump, and closes the inner conn exactly once.
type FaultConn struct {
	inner net.Conn
	slot  int
	gate  *Gate

	mu sync.Mutex // guards fw and closed against Write/Close races
	fw *FaultWriter

	queue     chan pumpItem
	wg        sync.WaitGroup
	closeOnce sync.Once
	innerOnce sync.Once
	gateOnce  sync.Once
	closed    bool
	closeErr  error
}

// NewFaultConn wraps inner with a fault plan. A non-nil gate with a
// slot rank makes the pump wait its scripted turn before the first
// byte leaves. The returned conn owns inner: Close closes it.
func NewFaultConn(inner net.Conn, slot int, plan Plan, gate *Gate) *FaultConn {
	c := &FaultConn{inner: inner, slot: slot, gate: gate, queue: make(chan pumpItem, queueCap)}
	c.fw = NewFaultWriter(plan, func(b []byte) {
		c.queue <- pumpItem{b: b}
	})
	c.fw.onTruncate = func() {
		c.queue <- pumpItem{closeAfter: true}
	}
	c.wg.Add(1)
	go c.pump()
	return c
}

// pump drains the queue into the inner conn. It exits when the queue
// closes (Close) and keeps draining after a write error so producers
// never block on a dead peer.
func (c *FaultConn) pump() {
	defer c.wg.Done()
	if c.gate != nil {
		c.gate.Wait(c.slot)
	}
	var failed bool
	for item := range c.queue {
		if len(item.b) > 0 && !failed {
			if _, err := c.inner.Write(item.b); err != nil {
				failed = true
			}
		}
		if item.closeAfter {
			c.closeInner()
			failed = true
		}
		// The slot's turn is spent once its first emission is on the
		// wire; passing here (not at pump exit) lets later-ranked conns
		// proceed while this round is still in flight.
		c.passGate()
	}
	c.passGate()
}

// passGate releases the conn's gate turn exactly once.
func (c *FaultConn) passGate() {
	if c.gate != nil {
		c.gateOnce.Do(func() { c.gate.Pass(c.slot) })
	}
}

// closeInner closes the wrapped conn exactly once.
func (c *FaultConn) closeInner() {
	c.innerOnce.Do(func() { c.closeErr = c.inner.Close() })
}

// Write feeds the fault layer. The caller always observes a full
// write: dropped or truncated frames are the fault model's business,
// not the producer's.
func (c *FaultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	return c.fw.Write(p)
}

// Read passes through to the inner conn.
func (c *FaultConn) Read(p []byte) (int, error) { return c.inner.Read(p) }

// Stats snapshots the fault layer's traffic counters.
func (c *FaultConn) Stats() FaultStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fw.Stats()
}

// Close flushes held frames, stops the pump, and closes the inner
// conn. Safe to call more than once; if the conn sits behind a gate
// its turn is forfeited so later-ranked conns never deadlock.
func (c *FaultConn) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.fw.Flush()
		c.mu.Unlock()
		close(c.queue)
		// A pump blocked on its gate turn would never drain the queue;
		// forfeit the turn from here so Close cannot deadlock.
		c.passGate()
		// Close the inner conn BEFORE joining the pump: over a
		// synchronous net.Pipe a surplus frame (e.g. a duplicate the
		// peer never reads) leaves the pump blocked inside inner.Write
		// forever. Closing the pipe fails that write and lets the pump
		// drain out. By Close time the protocol round is over, so any
		// frame still in flight is surplus by definition.
		c.closeInner()
		c.wg.Wait()
	})
	return c.closeErr
}

// LocalAddr, RemoteAddr and the deadline setters delegate to the
// inner conn so cluster's I/O deadlines keep working under faults.
func (c *FaultConn) LocalAddr() net.Addr  { return c.inner.LocalAddr() }
func (c *FaultConn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline delegates to the inner conn.
func (c *FaultConn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline delegates to the inner conn.
func (c *FaultConn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline delegates to the inner conn.
func (c *FaultConn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
