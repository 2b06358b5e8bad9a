package scenario

import (
	"bytes"
	"testing"

	"edgehd/internal/hdc"
	"edgehd/internal/rng"
	"edgehd/internal/wire"
)

// seededPlan draws one action per frame from a seeded stream, weighted
// toward Pass so streams stay mostly decodable; named scenarios script
// exact plans instead.
func seededPlan(r *rng.Source) Plan {
	return func(int) Action {
		switch v := r.Intn(10); {
		case v < 6:
			return Pass
		case v < 7:
			return Duplicate
		case v < 8:
			return Hold
		case v < 9:
			return Truncate
		default:
			return Drop
		}
	}
}

// FuzzFaultConn drives arbitrary bytes through the fault layer under a
// seeded plan and holds two properties:
//
//  1. the wire decoder never panics on whatever the layer emits — a
//     fault conn can only corrupt traffic in ways the decoder already
//     survives (errors, never crashes);
//  2. the identity plan is byte-transparent — whole frames, partial
//     tails, and hostile garbage all pass through unmodified, so
//     accepted frames round-trip exactly.
func FuzzFaultConn(f *testing.F) {
	var valid bytes.Buffer
	_ = wire.Write(&valid, queryMsgFuzz(64))
	_ = wire.Write(&valid, queryMsgFuzz(8))
	f.Add(valid.Bytes(), uint64(1))
	f.Add([]byte{}, uint64(2))
	f.Add([]byte{0x83, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0}, uint64(3)) // hostile length
	f.Add(bytes.Repeat([]byte{0x55}, 300), uint64(4))
	f.Add(valid.Bytes()[:valid.Len()-5], uint64(5)) // mid-frame cut

	f.Fuzz(func(t *testing.T, data []byte, planSeed uint64) {
		var out bytes.Buffer
		fw := NewFaultWriter(seededPlan(rng.New(planSeed)), func(b []byte) { out.Write(b) })
		// Fragmented writes exercise the reassembly buffer.
		for rest := data; len(rest) > 0; {
			n := 7
			if n > len(rest) {
				n = len(rest)
			}
			if _, err := fw.Write(rest[:n]); err != nil {
				t.Fatalf("fault layer rejected bytes: %v", err)
			}
			rest = rest[n:]
		}
		fw.Flush()

		// Property 1: the decoder survives the emitted stream. Reading
		// must terminate — every error ends the loop, and success
		// consumes at least a header per iteration.
		r := bytes.NewReader(out.Bytes())
		for {
			if _, err := wire.Read(r); err != nil {
				break
			}
		}

		// Property 2: the identity plan is byte-transparent.
		var echo bytes.Buffer
		id := NewFaultWriter(PassPlan, func(b []byte) { echo.Write(b) })
		if _, err := id.Write(data); err != nil {
			t.Fatalf("identity layer rejected bytes: %v", err)
		}
		id.Flush()
		if !bytes.Equal(echo.Bytes(), data) {
			t.Fatalf("identity plan altered the stream: %d bytes in, %d out", len(data), echo.Len())
		}
	})
}

// queryMsgFuzz builds a seed-corpus frame without a *testing.T.
func queryMsgFuzz(dim int) wire.Message {
	return wire.Message{Header: wire.Header{Type: wire.MsgQuery}, Bipolar: hdc.NewBipolar(dim)}
}
