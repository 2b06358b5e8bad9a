package main

import (
	"net"
	"testing"
	"time"

	"edgehd/internal/hdc"
	"edgehd/internal/rng"
	"edgehd/internal/wire"
)

// stallingServer answers every query on conn at once, except that after
// stallAfter queries it stops reading for stall. net.Pipe has no buffer,
// so while it stalls the client's writes block too — the worst a real
// stalled server can do to a sender.
func stallingServer(t *testing.T, conn net.Conn, stallAfter int, stall time.Duration) {
	defer conn.Close() //nolint:errcheck // test teardown
	if msg, err := wire.Read(conn); err != nil || msg.Header.Type != wire.MsgHello {
		t.Errorf("handshake: %v, %v", msg.Header.Type, err)
		return
	}
	for n := 1; ; n++ {
		msg, err := wire.Read(conn)
		if err != nil {
			return // the client closed: the run is over
		}
		if n == stallAfter {
			time.Sleep(stall)
		}
		reply := wire.Message{Header: wire.Header{Type: wire.MsgPredict, Batch: msg.Header.Batch}, Confidence: 0.9}
		if err := wire.Write(conn, reply); err != nil {
			return
		}
	}
}

// TestPacedLatencyCountsAStallAgainstLaterRequests is the coordinated-
// omission check: one request a millisecond, a server that stalls for
// 300 ms after the 20th. A generator that stamps latency at the actual
// send (cmd/loadgen's -rate mode) sees one slow request, because the
// requests due during the stall are sent late and timed from then. Timed
// from their intended send, every request due in the first 200 ms of the
// stall waited over 100 ms.
func TestPacedLatencyCountsAStallAgainstLaterRequests(t *testing.T) {
	const (
		requests   = 600
		stallAfter = 20
		stall      = 300 * time.Millisecond
	)
	r := rng.New(1)
	f := &servedFixture{labels: make([]int, 8)}
	for i := 0; i < 8; i++ {
		f.pool = append(f.pool, hdc.RandomBipolar(64, r))
		f.order = append(f.order, i)
	}
	sched := make([]time.Duration, requests)
	for i := range sched {
		sched[i] = time.Duration(i) * time.Millisecond
	}

	clientEnd, serverEnd := net.Pipe()
	go stallingServer(t, serverEnd, stallAfter, stall)
	c, err := newClient(clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	defer clientEnd.Close() //nolint:errcheck // test teardown
	log, out := newOpLog(requests), &servedRun{}
	if err := f.pacedConn(c, 0, sched, time.Now(), log, nil, nil, out); err != nil {
		t.Fatal(err)
	}

	if out.attempted != requests || out.answered != requests || out.failed() != 0 {
		t.Fatalf("attempted %d, answered %d, failed %d; want %d, %d, 0", out.attempted, out.answered, out.failed(), requests, requests)
	}
	slow, late := 0, 0
	for _, lat := range log.lat {
		if lat > 100*time.Millisecond {
			slow++
		}
	}
	for _, d := range out.late {
		if d > 100*time.Millisecond {
			late++
		}
	}
	// Requests 20..219 were due while at least 100 ms of stall remained.
	if slow < 150 {
		t.Errorf("only %d requests show the stall in their latency; the ~200 due during it must", slow)
	}
	// The same requests left late, and the harness says so.
	if late < 150 {
		t.Errorf("only %d requests are reported as sent over 100 ms late", late)
	}
	if len(out.late) != requests {
		t.Errorf("lateness recorded for %d of %d requests", len(out.late), requests)
	}
}

// TestPacedCountsSheddingAndSilenceAsFailures: a MsgBusy reply is a
// failure that is not retried, and a request that never gets a reply is
// a timeout once the drain timeout has passed.
func TestPacedCountsSheddingAsFailureWithoutRetry(t *testing.T) {
	r := rng.New(2)
	f := &servedFixture{labels: []int{0}, pool: []hdc.Bipolar{hdc.RandomBipolar(64, r)}, order: []int{0}}
	clientEnd, serverEnd := net.Pipe()
	received := make(chan int, 1)
	go func() {
		defer serverEnd.Close() //nolint:errcheck // test teardown
		n := 0
		defer func() { received <- n }()
		if _, err := wire.Read(serverEnd); err != nil {
			return
		}
		for {
			msg, err := wire.Read(serverEnd)
			if err != nil {
				return
			}
			n++
			reply := wire.Message{Header: wire.Header{Type: wire.MsgBusy, Batch: msg.Header.Batch}}
			if msg.Header.Batch%2 == 0 {
				reply = wire.Message{Header: wire.Header{Type: wire.MsgPredict, Batch: msg.Header.Batch}, Confidence: 0.9}
			}
			if err := wire.Write(serverEnd, reply); err != nil {
				return
			}
		}
	}()
	c, err := newClient(clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	sched := make([]time.Duration, 10)
	log, out := newOpLog(10), &servedRun{}
	if err := f.pacedConn(c, 0, sched, time.Now(), log, nil, nil, out); err != nil {
		t.Fatal(err)
	}
	_ = clientEnd.Close()
	if got := <-received; got != 10 {
		t.Errorf("server saw %d queries for 10 scheduled: a shed query was retried or dropped", got)
	}
	if out.attempted != 10 || out.answered != 5 || out.shed != 5 || out.failed() != 5 || len(log.lat) != 5 {
		t.Errorf("attempted %d answered %d shed %d failed %d logged %d; want 10 5 5 5 5",
			out.attempted, out.answered, out.shed, out.failed(), len(log.lat))
	}
}
