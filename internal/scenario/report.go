package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Report is one matrix run: the parameters it ran under, the pool
// widths it proved identical across, and every scenario's result. All
// fields are deterministic except Workers, which follows the host's
// core count (see matrixWidths).
type Report struct {
	Dataset        string   `json:"dataset"`
	Dim            int      `json:"dim"`
	Train          int      `json:"train"`
	Queries        int      `json:"queries"`
	Seed           uint64   `json:"seed"`
	ClusterWorkers int      `json:"cluster_workers"`
	ClusterDim     int      `json:"cluster_dim"`
	Workers        []int    `json:"workers,omitempty"`
	Scenarios      []Result `json:"scenarios"`
}

// NewReport builds an empty report for one parameter shape.
func NewReport(p Params, widths []int) *Report {
	p = p.withDefaults()
	return &Report{
		Dataset:        p.Dataset,
		Dim:            p.Dim,
		Train:          p.Train,
		Queries:        p.Queries,
		Seed:           p.Seed,
		ClusterWorkers: p.ClusterWorkers,
		ClusterDim:     p.ClusterDim,
		Workers:        append([]int(nil), widths...),
	}
}

// Pass reports whether every scenario passed.
func (r *Report) Pass() bool {
	for _, s := range r.Scenarios {
		if !s.Pass {
			return false
		}
	}
	return len(r.Scenarios) > 0
}

// Encode renders the report as indented JSON with a trailing newline —
// the exact bytes the golden matrix snapshot holds.
func (r *Report) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode report: %w", err)
	}
	return append(b, '\n'), nil
}

// resultsIdentical reports byte-identity of two results' JSON forms.
func resultsIdentical(a, b Result) bool {
	ab, errA := json.Marshal(a)
	bb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ab, bb)
}
