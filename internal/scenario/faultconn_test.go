package scenario

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"edgehd/internal/hdc"
	"edgehd/internal/telemetry"
	"edgehd/internal/wire"
)

// encodeFrame renders one wire message to its framed bytes.
func encodeFrame(t *testing.T, m wire.Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.Write(&buf, m); err != nil {
		t.Fatalf("encode frame: %v", err)
	}
	return buf.Bytes()
}

func queryMsg(dim int) wire.Message {
	return wire.Message{
		Header:  wire.Header{Type: wire.MsgQuery, Batch: 7},
		Bipolar: hdc.NewBipolar(dim),
	}
}

func tracedMsg(dim int) wire.Message {
	m := queryMsg(dim)
	m.Trace = &telemetry.TraceContext{TraceID: 0xAB, SpanID: 0xCD, ParentID: 0xEF}
	return m
}

// collectWriter builds a FaultWriter whose emissions append to out.
func collectWriter(plan Plan) (*FaultWriter, *bytes.Buffer) {
	var out bytes.Buffer
	return NewFaultWriter(plan, func(b []byte) { out.Write(b) }), &out
}

// TestFaultWriterTracksWireFraming pins the package's mirrored frame
// geometry (frameHeaderBytes, frameTraceBytes, TraceFlag placement,
// payload length offset) to the real wire encoder: traced and untraced
// frames, dribbled in byte by byte, must be recognized as exactly two
// frames and pass through byte-identically. If wire's framing ever
// drifts, this fails loudly instead of the fault layer misparsing.
func TestFaultWriterTracksWireFraming(t *testing.T) {
	plain := encodeFrame(t, queryMsg(64))
	traced := encodeFrame(t, tracedMsg(96))
	if len(traced) != len(encodeFrame(t, queryMsg(96)))+frameTraceBytes {
		t.Fatalf("trace block is not %d bytes on the wire", frameTraceBytes)
	}
	if len(plain) < frameHeaderBytes {
		t.Fatalf("encoded frame shorter than the mirrored header (%d < %d)", len(plain), frameHeaderBytes)
	}

	fw, out := collectWriter(nil)
	stream := append(append([]byte(nil), plain...), traced...)
	for i := range stream { // worst-case fragmentation
		if _, err := fw.Write(stream[i : i+1]); err != nil {
			t.Fatalf("write byte %d: %v", i, err)
		}
	}
	st := fw.Stats()
	if st.FramesIn != 2 || st.FramesOut != 2 || st.Passthrough {
		t.Fatalf("framing drifted: stats %+v", st)
	}
	if !bytes.Equal(out.Bytes(), stream) {
		t.Fatal("pass-through fault layer altered the byte stream")
	}

	// Frame boundaries are real: dropping only frame 0 leaves a stream
	// that decodes to exactly the traced message.
	fw2, out2 := collectWriter(func(n int) Action {
		if n == 0 {
			return Drop
		}
		return Pass
	})
	if _, err := fw2.Write(stream); err != nil {
		t.Fatal(err)
	}
	m, err := wire.Read(bytes.NewReader(out2.Bytes()))
	if err != nil {
		t.Fatalf("decoding survivor frame: %v", err)
	}
	if m.Trace == nil || m.Trace.TraceID != 0xAB || m.Header.Batch != 7 {
		t.Fatalf("survivor frame mangled: %+v", m.Header)
	}
	if _, err := wire.Read(bytes.NewReader(out2.Bytes()[len(traced):])); err == nil {
		t.Fatal("more than one frame survived a drop plan")
	}
}

func TestFaultWriterActions(t *testing.T) {
	f1 := encodeFrame(t, queryMsg(64))
	f2 := encodeFrame(t, queryMsg(128))

	t.Run("duplicate", func(t *testing.T) {
		fw, out := collectWriter(func(int) Action { return Duplicate })
		fw.Write(f1)
		if want := append(append([]byte(nil), f1...), f1...); !bytes.Equal(out.Bytes(), want) {
			t.Fatal("duplicate did not emit the frame exactly twice")
		}
		if st := fw.Stats(); st.Duplicated != 1 || st.FramesOut != 2 || st.BytesOut != 2*st.BytesIn {
			t.Fatalf("duplicate ledger wrong: %+v", st)
		}
	})

	t.Run("hold reorders within the stream", func(t *testing.T) {
		fw, out := collectWriter(func(n int) Action {
			if n == 0 {
				return Hold
			}
			return Pass
		})
		fw.Write(f1)
		if out.Len() != 0 {
			t.Fatal("held frame leaked before the next frame")
		}
		fw.Write(f2)
		if want := append(append([]byte(nil), f2...), f1...); !bytes.Equal(out.Bytes(), want) {
			t.Fatal("hold did not swap the two frames")
		}
		if st := fw.Stats(); st.Held != 1 || st.FramesOut != 2 {
			t.Fatalf("hold ledger wrong: %+v", st)
		}
	})

	t.Run("held frame released by Flush", func(t *testing.T) {
		fw, out := collectWriter(func(int) Action { return Hold })
		fw.Write(f1)
		fw.Flush()
		if !bytes.Equal(out.Bytes(), f1) {
			t.Fatal("Flush did not release the held frame")
		}
	})

	t.Run("drop", func(t *testing.T) {
		fw, out := collectWriter(func(int) Action { return Drop })
		fw.Write(f1)
		if out.Len() != 0 {
			t.Fatal("dropped frame was emitted")
		}
		if st := fw.Stats(); st.Dropped != 1 || st.FramesOut != 0 || st.BytesOut != 0 {
			t.Fatalf("drop ledger wrong: %+v", st)
		}
	})

	t.Run("truncate emits half and signals", func(t *testing.T) {
		fired := 0
		fw, out := collectWriter(func(int) Action { return Truncate })
		fw.onTruncate = func() { fired++ }
		fw.Write(f1)
		if !bytes.Equal(out.Bytes(), f1[:len(f1)/2]) {
			t.Fatal("truncate did not emit exactly the first half")
		}
		if fired != 1 {
			t.Fatalf("onTruncate fired %d times, want 1", fired)
		}
		if st := fw.Stats(); st.Truncated != 1 || st.FramesOut != 0 || st.BytesOut != int64(len(f1)/2) {
			t.Fatalf("truncate ledger wrong: %+v", st)
		}
	})
}

func TestFaultWriterHostileLengthGoesRaw(t *testing.T) {
	// A header whose length field exceeds wire.MaxPayload must flip the
	// layer into raw passthrough — garbage forwards unmodified instead
	// of stalling the stream waiting for 4 GiB that never comes.
	head := make([]byte, frameHeaderBytes)
	head[0] = byte(wire.MsgQuery)
	lie := uint32(wire.MaxPayload + 1)
	head[1], head[2], head[3], head[4] = byte(lie), byte(lie>>8), byte(lie>>16), byte(lie>>24)
	junk := append(head, []byte("garbage tail")...)

	fw, out := collectWriter(nil)
	fw.Write(junk)
	fw.Write([]byte("more"))
	st := fw.Stats()
	if !st.Passthrough {
		t.Fatal("hostile length did not flip passthrough")
	}
	if want := append(append([]byte(nil), junk...), []byte("more")...); !bytes.Equal(out.Bytes(), want) {
		t.Fatal("raw mode did not forward all bytes")
	}
	if st.FramesIn != 0 {
		t.Fatalf("raw bytes counted as frames: %+v", st)
	}
}

func TestFaultWriterFlushForwardsPartialTail(t *testing.T) {
	f1 := encodeFrame(t, queryMsg(64))
	fw, out := collectWriter(nil)
	fw.Write(f1[:len(f1)-3])
	if out.Len() != 0 {
		t.Fatal("incomplete frame emitted early")
	}
	fw.Flush()
	if !bytes.Equal(out.Bytes(), f1[:len(f1)-3]) {
		t.Fatal("Flush lost the partial tail")
	}
}

func TestGateReleasesInScriptedOrder(t *testing.T) {
	order := []int{2, 0, 1}
	g := NewGate(order)
	var mu sync.Mutex
	var got []int
	var wg sync.WaitGroup
	for slot := 0; slot < 3; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			g.Wait(slot)
			mu.Lock()
			got = append(got, slot)
			mu.Unlock()
			g.Pass(slot)
		}(slot)
	}
	wg.Wait()
	for i, slot := range order {
		if got[i] != slot {
			t.Fatalf("release order %v, want %v", got, order)
		}
	}
	// Unranked slots pass freely.
	g.Wait(99)
	g.Pass(99)
}

// pipeDeadline bounds every read and write on the given pipe ends at one
// second, so a hung transfer fails the test instead of stalling it.
func pipeDeadline(t *testing.T, conns ...net.Conn) {
	t.Helper()
	for _, c := range conns {
		if err := c.SetDeadline(time.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
	}
}

// notTimeout fails when err is a deadline expiry, so a timeout cannot
// stand in for the rejection a test expects.
func notTimeout(t *testing.T, what string, err error) {
	t.Helper()
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: timed out instead of failing: %v", what, err)
	}
}

func TestFaultConnRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	pipeDeadline(t, client, server)
	fc := NewFaultConn(client, 0, nil, nil)

	msg := tracedMsg(128)
	errc := make(chan error, 1)
	go func() { errc <- wire.Write(fc, msg) }()
	got, err := wire.Read(server)
	if err != nil {
		t.Fatalf("read through fault conn: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("write through fault conn: %v", err)
	}
	if got.Header.Type != wire.MsgQuery || got.Trace == nil || got.Trace.TraceID != 0xAB {
		t.Fatalf("frame mangled in transit: %+v", got.Header)
	}

	// Reads pass straight through.
	go func() { _ = wire.Write(server, queryMsg(32)) }()
	if _, err := wire.Read(fc); err != nil {
		t.Fatalf("read via fault conn: %v", err)
	}

	if err := fc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := wire.Read(server); err == nil {
		t.Fatal("peer still readable after Close")
	} else {
		notTimeout(t, "peer read after Close", err)
	}
	if _, err := fc.Write([]byte("x")); err == nil {
		t.Fatal("write accepted after Close")
	} else {
		notTimeout(t, "write after Close", err)
	}
}

// TestFaultConnCloseWithSurplusFrame is the regression for the Close
// ordering: a duplicated frame the peer never reads leaves the pump
// blocked inside the synchronous pipe write, and Close must cut it
// loose (by closing the inner conn first) instead of deadlocking. The
// inner end gets no deadline, which would release the pump by itself;
// Close instead has one second to return.
func TestFaultConnCloseWithSurplusFrame(t *testing.T) {
	client, server := net.Pipe()
	pipeDeadline(t, server)
	fc := NewFaultConn(client, 0, func(int) Action { return Duplicate }, nil)

	errc := make(chan error, 1)
	go func() { errc <- wire.Write(fc, queryMsg(64)) }()
	if _, err := wire.Read(server); err != nil {
		t.Fatalf("read first copy: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("write: %v", err)
	}
	// The second copy is in flight and will never be read.
	closed := make(chan error, 1)
	go func() { closed <- fc.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close with surplus frame in flight: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close deadlocked with a surplus frame in flight")
	}
	st := fc.Stats()
	if st.Duplicated != 1 || st.FramesOut != 2 {
		t.Fatalf("surplus-frame ledger wrong: %+v", st)
	}
}

func TestFaultConnTruncateClosesPeerMidFrame(t *testing.T) {
	client, server := net.Pipe()
	pipeDeadline(t, client, server)
	fc := NewFaultConn(client, 0, func(int) Action { return Truncate }, nil)
	defer fc.Close()

	errc := make(chan error, 1)
	go func() { errc <- wire.Write(fc, queryMsg(256)) }()
	if _, err := wire.Read(server); err == nil {
		t.Fatal("peer decoded a truncated frame")
	} else if err == io.EOF {
		t.Fatal("peer saw clean EOF, want mid-frame cut")
	} else {
		notTimeout(t, "truncated frame read", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("local write failed: %v", err)
	}
}
