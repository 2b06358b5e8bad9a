package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the harness from
// outside the program: what ran, when, for which operation, and which
// span caused it. A child measured by calling the same public function
// on a sub-part (a child node's Query before its parent's) is linked by
// Parent although its interval lies before the parent's, so a layer's
// self time is its duration minus the durations of its children.
type span struct {
	ID      uint32  `json:"id"`
	Parent  uint32  `json:"parent"`
	Op      uint32  `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// maxSpansPerCaller bounds a recorder's memory and the trace file; a
// full recorder drops further spans, never the run.
const maxSpansPerCaller = 1 << 15

// recorder keeps one caller's spans in memory. A nil recorder records
// nothing, so the untraced pass runs the same code with one nil check
// per call.
type recorder struct {
	epoch  time.Time
	caller uint32
	spans  []span
}

func newRecorder(epoch time.Time, caller int) *recorder {
	return &recorder{epoch: epoch, caller: uint32(caller), spans: make([]span, 0, 4096)}
}

// begin opens a span and returns its id (0 when nothing was recorded).
func (r *recorder) begin(name string, parent, op uint32) uint32 {
	if r == nil || len(r.spans) >= maxSpansPerCaller {
		return 0
	}
	id := r.caller<<24 | uint32(len(r.spans)+1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartUS: r.since(time.Now())})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id uint32) {
	if r == nil || id == 0 {
		return
	}
	r.at(id).EndUS = r.since(time.Now())
}

// set overwrites the interval of an open span with one the caller timed
// itself.
func (r *recorder) set(id uint32, start, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	s := r.at(id)
	s.StartUS, s.EndUS = r.since(start), r.since(end)
}

// add records a span whose interval the caller timed itself.
func (r *recorder) add(name string, parent, op uint32, start, end time.Time) uint32 {
	id := r.begin(name, parent, op)
	r.set(id, start, end)
	return id
}

// at returns the span with the given id: the low 24 bits are its
// position in the recorder, counted from one.
func (r *recorder) at(id uint32) *span { return &r.spans[id&(1<<24-1)-1] }

func (r *recorder) since(t time.Time) float64 {
	return float64(t.Sub(r.epoch)) / float64(time.Microsecond)
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

// traceDir is where the traced pass leaves its span files, relative to
// the directory the benchmark is run from (the root of a checkout). Tests
// point it at a temporary directory.
var traceDir = "bench/out"

// writeTrace writes the spans of every recorder to the workload's trace
// file and returns its path.
func writeTrace(workload string, seed uint64, recs []*recorder) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed}
	for _, r := range recs {
		if r != nil {
			tf.Spans = append(tf.Spans, r.spans...)
		}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s.json", workload))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
