package wire

import (
	"bytes"
	"io"
	"testing"

	"edgehd/internal/hdc"
	"edgehd/internal/rng"
)

// TestAllocs pins the heap allocations per frame of the served query
// path's codec at D=4096. Each ceiling is today's measured count; a
// change that earns a lower count lowers it.
func TestAllocs(t *testing.T) {
	query := Message{Header: Header{Type: MsgQuery, Batch: 7}, Bipolar: hdc.RandomBipolar(4096, rng.New(1))}
	reply := Message{Header: Header{Type: MsgPredict, Class: 1, Batch: 7}, Confidence: 0.9}
	var frame bytes.Buffer
	if err := Write(&frame, query); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(frame.Bytes())
	for _, tc := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		{"Write query", 3, func() { _ = Write(io.Discard, query) }},
		{"Write reply", 2, func() { _ = Write(io.Discard, reply) }},
		{"Read query", 4, func() {
			rd.Reset(frame.Bytes())
			if _, err := Read(rd); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got > tc.ceiling {
			t.Errorf("%s: %v allocs per call, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
