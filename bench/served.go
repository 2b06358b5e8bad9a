package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"edgehd/internal/hdc"
	"edgehd/internal/serve"
	"edgehd/internal/wire"
)

const (
	// servedOracleEvery is how often a reply is kept for the oracle and,
	// in the traced pass, followed by the direct-call stages.
	servedOracleEvery = 8
	// drainTimeout bounds how long a paced connection waits for replies
	// still outstanding after its last send; what is missing then counts
	// as timed out.
	drainTimeout = 2 * time.Second
)

// countConn counts the bytes a client moves over its socket. in is
// touched only by the reading goroutine and out only by the writing
// one; both are read after those have finished.
type countConn struct {
	net.Conn
	in, out int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in += int64(n)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out += int64(n)
	return n, err
}

// client is one serving connection: frames are encoded into a buffer and
// written with one call, replies are read through a buffered reader.
type client struct {
	nc   *countConn
	br   *bufio.Reader
	wbuf bytes.Buffer
}

// newClient opens the serving handshake on nc.
func newClient(nc net.Conn) (*client, error) {
	c := &client{nc: &countConn{Conn: nc}}
	c.br = bufio.NewReaderSize(c.nc, 16<<10)
	if err := wire.Write(c.nc, wire.Message{Header: wire.Header{Type: wire.MsgHello}, Text: tenantName}); err != nil {
		return nil, err
	}
	return c, nil
}

// send frames query q under sequence number seq and writes it.
func (c *client) send(rec *recorder, op uint32, seq int32, q hdc.Bipolar) error {
	sp := rec.begin("frame_encode", 0, op)
	c.wbuf.Reset()
	err := wire.Write(&c.wbuf, wire.Message{Header: wire.Header{Type: wire.MsgQuery, Batch: seq}, Bipolar: q})
	rec.end(sp)
	if err != nil {
		return err
	}
	_, err = c.nc.Write(c.wbuf.Bytes())
	return err
}

func (c *client) recv() (wire.Message, error) {
	return wire.Read(c.br)
}

// servedSample is one reply kept for the oracle.
type servedSample struct {
	idx   int // pool index of the query
	class int32
	bits  uint64
}

// directSample pairs one query's socket round trip with the time the
// same work takes when called directly: client frame encode, server-side
// frame decode, Confidence, reply encode and client reply decode. The
// remainder is what the query waited: queue, batch window, syscalls.
type directSample struct {
	rtt, direct time.Duration
}

// servedRun is what one phase of served queries produced.
type servedRun struct {
	ph        *phase
	logs      []*opLog
	attempted int64
	answered  int64
	shed      int64 // MsgBusy replies: failures, never retried
	timedOut  int64 // sent but unanswered when the drain timeout ran out
	labelHits int64
	bytes     int64 // client socket bytes, both directions
	samples   []servedSample
	direct    []directSample
	late      []time.Duration // paced: actual minus intended send time
	recs      []*recorder
	stats     serve.Stats // server counters over the phase
	mallocs   uint64      // process-wide allocations over the phase
}

func (r *servedRun) failed() int64 { return r.shed + r.timedOut }

// run drives the server from callers() connections for dur: a closed
// loop keeping w.window queries in flight per connection, or, when
// w.paced, an open loop on a seeded Poisson schedule.
func (f *servedFixture) run(w workload, seed uint64, dur time.Duration, trace bool) (*servedRun, error) {
	n := callers()
	clients := make([]*client, n)
	for i := range clients {
		nc, err := net.Dial("tcp", f.ln.Addr().String())
		if err != nil {
			return nil, err
		}
		defer nc.Close() //nolint:errcheck // the run is over when this fires
		if clients[i], err = newClient(nc); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	before := f.srv.Stats()

	run := &servedRun{ph: &phase{start: time.Now(), dur: dur}, logs: make([]*opLog, n)}
	parts := make([]servedRun, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for ci := 0; ci < n; ci++ {
		run.logs[ci] = newOpLog(1 << 16)
		var rec, sendRec *recorder
		if trace {
			rec, sendRec = newRecorder(run.ph.start, ci), newRecorder(run.ph.start, n+ci)
			run.recs = append(run.recs, rec, sendRec)
		}
		pos := ci * len(f.order) / n
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			if w.paced {
				sched := poissonSchedule(seed, strconv.Itoa(ci), pacedRate/float64(n), dur)
				errs[ci] = f.pacedConn(clients[ci], pos, sched, run.ph.start, run.logs[ci], rec, sendRec, &parts[ci])
			} else {
				errs[ci] = f.closedConn(clients[ci], pos, w.window, run.ph.start, run.ph.start.Add(dur), run.logs[ci], rec, &parts[ci])
			}
		}(ci)
	}
	run.ph.sampleCPU()
	wg.Wait()
	after := f.srv.Stats()
	runtime.ReadMemStats(&ms1)
	for ci, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("connection %d: %w", ci, err)
		}
	}
	for ci := range parts {
		p := &parts[ci]
		run.attempted += p.attempted
		run.answered += p.answered
		run.shed += p.shed
		run.timedOut += p.timedOut
		run.labelHits += p.labelHits
		run.bytes += clients[ci].nc.in + clients[ci].nc.out
		run.samples = append(run.samples, p.samples...)
		run.direct = append(run.direct, p.direct...)
		run.late = append(run.late, p.late...)
	}
	run.stats = serve.Stats{
		Admitted: after.Admitted - before.Admitted,
		Rejected: after.Rejected - before.Rejected,
		Replied:  after.Replied - before.Replied,
		Batches:  after.Batches - before.Batches,
	}
	run.mallocs = ms1.Mallocs - ms0.Mallocs
	return run, nil
}

// answer books one reply to the query with pool index idx.
func (f *servedFixture) answer(msg wire.Message, idx int, done, lat time.Duration, log *opLog, out *servedRun) (keep bool, err error) {
	switch msg.Header.Type {
	case wire.MsgPredict:
		log.add(done, lat)
		out.answered++
		if int(msg.Header.Class) == f.labels[idx] {
			out.labelHits++
		}
		if out.answered%servedOracleEvery == 0 {
			out.samples = append(out.samples, servedSample{idx: idx, class: msg.Header.Class, bits: math.Float64bits(msg.Confidence)})
			return true, nil
		}
		return false, nil
	case wire.MsgBusy:
		out.shed++
		return false, nil
	case wire.MsgError:
		return false, fmt.Errorf("server error: %s", msg.Text)
	default:
		return false, fmt.Errorf("unexpected reply type %d", msg.Header.Type)
	}
}

// closedConn keeps window queries in flight on one connection until the
// deadline, sending one fresh query per reply, then collects what is
// still outstanding. Latency runs from the actual send.
func (f *servedFixture) closedConn(c *client, pos, window int, start, deadline time.Time, log *opLog, rec *recorder, out *servedRun) error {
	type pending struct {
		idx  int
		sent time.Time
		rtt  uint32
	}
	inflight := make(map[int32]pending, window)
	var seq int32
	send := func() error {
		idx := f.order[pos]
		if pos++; pos == len(f.order) {
			pos = 0
		}
		seq++
		out.attempted++
		p := pending{idx: idx, sent: time.Now()}
		p.rtt = rec.begin("rtt", 0, uint32(seq))
		inflight[seq] = p
		return c.send(rec, uint32(seq), seq, f.pool[idx])
	}
	for len(inflight) < window {
		if err := send(); err != nil {
			return err
		}
	}
	for len(inflight) > 0 {
		msg, err := c.recv()
		if err != nil {
			return err
		}
		now := time.Now()
		p, ok := inflight[msg.Header.Batch]
		if !ok {
			return fmt.Errorf("reply for unknown sequence number %d", msg.Header.Batch)
		}
		delete(inflight, msg.Header.Batch)
		rec.end(p.rtt)
		keep, err := f.answer(msg, p.idx, now.Sub(start), now.Sub(p.sent), log, out)
		if err != nil {
			return err
		}
		if keep && rec != nil {
			direct, err := f.directStages(rec, p.rtt, uint32(msg.Header.Batch), p.idx)
			if err != nil {
				return err
			}
			out.direct = append(out.direct, directSample{rtt: now.Sub(p.sent), direct: direct})
		}
		if now.Before(deadline) {
			if err := send(); err != nil {
				return err
			}
		}
	}
	return nil
}

// pacedConn sends sched's queries at their intended times from one
// goroutine and reads replies on the calling one. Latency runs from the
// intended send time, so a stall delays and inflates every request due
// during it; the sender never waits for a reply and never retries.
func (f *servedFixture) pacedConn(c *client, pos int, sched []time.Duration, start time.Time, log *opLog, rec, sendRec *recorder, out *servedRun) error {
	// sentAt[i] is the actual send time of request i as an offset from
	// start; the sender stores it before writing, the receiver loads it
	// after the reply arrived.
	sentAt := make([]atomic.Int64, len(sched))
	idxOf := func(i int) int { return f.order[(pos+i)%len(f.order)] }
	var sent int
	var sendErr error
	var sender sync.WaitGroup
	sender.Add(1)
	go func() {
		defer sender.Done()
		for i, at := range sched {
			sleepUntil(start.Add(at))
			sentAt[i].Store(int64(time.Since(start)))
			if sendErr = c.send(sendRec, uint32(i), int32(i), f.pool[idxOf(i)]); sendErr != nil {
				// Wake the receiver: nothing more will arrive in order.
				_ = c.nc.Close()
				return
			}
			sent = i + 1
		}
		_ = c.nc.SetReadDeadline(time.Now().Add(drainTimeout))
	}()
	replies := 0
	var recvErr error
	for replies < len(sched) {
		msg, err := c.recv()
		if err != nil {
			recvErr = err
			break
		}
		now := time.Now()
		i := int(msg.Header.Batch)
		if i < 0 || i >= len(sched) {
			recvErr = fmt.Errorf("reply for unknown sequence number %d", i)
			break
		}
		replies++
		response := rec.add("response", 0, uint32(i), start.Add(sched[i]), now)
		rtt := rec.add("rtt", response, uint32(i), start.Add(time.Duration(sentAt[i].Load())), now)
		keep, err := f.answer(msg, idxOf(i), now.Sub(start), now.Sub(start)-sched[i], log, out)
		if err != nil {
			recvErr = err
			break
		}
		if keep && rec != nil {
			direct, err := f.directStages(rec, rtt, uint32(i), idxOf(i))
			if err != nil {
				recvErr = err
				break
			}
			out.direct = append(out.direct, directSample{rtt: now.Sub(start) - time.Duration(sentAt[i].Load()), direct: direct})
		}
	}
	if recvErr != nil {
		// Stop a sender that is still going; it sees the closed socket.
		_ = c.nc.Close()
	}
	sender.Wait()
	if sendErr != nil {
		return sendErr
	}
	out.attempted = int64(sent)
	for i := 0; i < sent; i++ {
		out.late = append(out.late, time.Duration(sentAt[i].Load())-sched[i])
	}
	if nerr, ok := recvErr.(net.Error); ok && nerr.Timeout() {
		out.timedOut = int64(sent - replies)
		return nil
	}
	return recvErr
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until t.
// time.Sleep on an otherwise idle process wakes through the netpoller,
// whose timeout has millisecond resolution: a paced sender using it ran
// 1–2 ms late at the 99th percentile, half of what serve-paced then
// reported as tail latency. nanosleep is good to the kernel's 50 µs
// timer slack.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just goes round again
	}
}

// directStages times, by direct calls, the work one served query needs
// besides waiting — the client's frame encode, the server's frame decode,
// Model.Confidence, the reply encode and the client's reply decode — and
// records each as a child of the query's round-trip span.
func (f *servedFixture) directStages(rec *recorder, parent, op uint32, idx int) (time.Duration, error) {
	q := f.pool[idx]
	var frame, reply bytes.Buffer
	t0 := time.Now()
	if err := wire.Write(&frame, wire.Message{Header: wire.Header{Type: wire.MsgQuery, Batch: int32(op)}, Bipolar: q}); err != nil {
		return 0, err
	}
	t1 := time.Now()
	msg, err := wire.Read(bytes.NewReader(frame.Bytes()))
	if err != nil {
		return 0, err
	}
	t2 := time.Now()
	class, conf := f.model.Confidence(msg.Bipolar)
	t3 := time.Now()
	if err := wire.Write(&reply, wire.Message{Header: wire.Header{Type: wire.MsgPredict, Class: int32(class), Batch: int32(op)}, Confidence: conf}); err != nil {
		return 0, err
	}
	t4 := time.Now()
	if _, err := wire.Read(bytes.NewReader(reply.Bytes())); err != nil {
		return 0, err
	}
	t5 := time.Now()
	rec.add("direct_frame_encode", parent, op, t0, t1)
	rec.add("direct_frame_decode", parent, op, t1, t2)
	rec.add("direct_assoc", parent, op, t2, t3)
	rec.add("direct_reply_encode", parent, op, t3, t4)
	rec.add("direct_reply_decode", parent, op, t4, t5)
	return t5.Sub(t0), nil
}

// verify compares every kept reply bit for bit with the model's own
// Confidence and returns how many differ.
func (f *servedFixture) verify(samples []servedSample) int64 {
	var bad int64
	for _, s := range samples {
		class, conf := f.model.Confidence(f.pool[s.idx])
		if int32(class) != s.class || math.Float64bits(conf) != s.bits {
			bad++
		}
	}
	return bad
}

// idleRTT sends calls queries one at a time on an otherwise idle server
// and returns the median round trip in milliseconds.
func (f *servedFixture) idleRTT(calls int) (float64, error) {
	nc, err := net.Dial("tcp", f.ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer nc.Close() //nolint:errcheck // probe connection
	c, err := newClient(nc)
	if err != nil {
		return 0, err
	}
	rtts := make([]float64, calls)
	for i := range rtts {
		t := time.Now()
		if err := c.send(nil, 0, int32(i), f.pool[f.order[i%len(f.order)]]); err != nil {
			return 0, err
		}
		msg, err := c.recv()
		if err != nil {
			return 0, err
		}
		if msg.Header.Type != wire.MsgPredict {
			return 0, fmt.Errorf("idle query got reply type %d", msg.Header.Type)
		}
		rtts[i] = float64(time.Since(t)) / float64(time.Millisecond)
	}
	return median(rtts), nil
}
