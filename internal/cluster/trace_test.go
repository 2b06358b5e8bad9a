package cluster

import (
	"net"
	"testing"
	"time"

	"edgehd/internal/telemetry"
)

// TestFederatedRoundSharesOneTrace runs a traced federated round and
// checks that every hop — push, aggregate, broadcast, pull — joins the
// single trace opened for the round, stitched across the wire by the
// frame trace header.
func TestFederatedRoundSharesOneTrace(t *testing.T) {
	const workers = 3
	spec, shards, _ := shardedDataset(t, "APRI", workers, 120)
	cfg := federatedConfig(spec, 500)
	tr := telemetry.NewTracer(256, nil)
	cfg.Tracer = tr
	if _, _, err := Federated(cfg, shards); err != nil {
		t.Fatal(err)
	}
	root := tr.Last("federated_round")
	if root == nil {
		t.Fatal("no federated_round span recorded")
	}
	if root.TraceID == 0 {
		t.Fatal("round span carries no trace id")
	}
	spans := tr.Trace(root.TraceID)
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Name]++
	}
	for _, name := range []string{"cluster_push", "cluster_aggregate", "cluster_broadcast", "cluster_pull"} {
		if counts[name] != workers {
			t.Fatalf("trace has %d %s spans, want %d (counts: %v)", counts[name], name, workers, counts)
		}
	}
	// The hop structure must survive tree assembly: the round root with
	// per-worker push chains beneath it.
	tree := tr.TraceTree(root.TraceID)
	if len(tree) != 1 || tree[0].Name != "federated_round" {
		t.Fatalf("trace tree roots = %d (want the single round span)", len(tree))
	}
	if len(tree[0].Children) != workers {
		t.Fatalf("round span has %d children, want %d pushes", len(tree[0].Children), workers)
	}
	// Bytes pushed up must match bytes the aggregator read, hop by hop:
	// the trace observes the same frames the wire moved.
	pushed, aggregated := int64(0), int64(0)
	for _, s := range spans {
		b, ok := s.Int64Attr("wire_bytes")
		if !ok {
			continue
		}
		switch s.Name {
		case "cluster_push":
			pushed += b
		case "cluster_aggregate":
			aggregated += b
		}
	}
	if pushed == 0 || pushed != aggregated {
		t.Fatalf("pushed %d bytes but aggregator read %d", pushed, aggregated)
	}
}

// TestFederatedUntracedRecordsNoSpans checks the disabled path: without
// a tracer the round must not invent trace contexts (frames stay in the
// pre-trace encoding) and nothing panics.
func TestFederatedUntracedRecordsNoSpans(t *testing.T) {
	spec, shards, _ := shardedDataset(t, "APRI", 2, 80)
	cfg := federatedConfig(spec, 500)
	if _, _, err := Federated(cfg, shards); err != nil {
		t.Fatal(err)
	}
}

// TestPushPullUntracedFrameInterop checks that a worker with tracing
// bound still interoperates with an untraced peer: untraced frames
// decode with no context and traced frames decode for peers that
// ignore the block.
func TestPushPullUntracedFrameInterop(t *testing.T) {
	spec, shards, _ := shardedDataset(t, "APRI", 1, 60)
	cfg := federatedConfig(spec, 500)
	// Both ends arm this deadline on the pipe around every frame.
	cfg.IOTimeout = time.Second
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Train(shards[0].X, shards[0].Y); err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(16, nil)
	w.cfg.Tracer = tr
	w.SetTrace(tr.NewTrace())

	agg, err := NewAggregator(cfg.Dim, cfg.Classes, 1)
	if err != nil {
		t.Fatal(err)
	}
	agg.SetIOTimeout(time.Second)
	// No tracer on the aggregator: it must still read the traced frame
	// and echo the context back on the broadcast.
	release := make(chan struct{})
	merged := make(chan error, 1)
	workerEnd, aggEnd := net.Pipe()
	defer workerEnd.Close() //nolint:errcheck // in-process pipe
	defer aggEnd.Close()    //nolint:errcheck // in-process pipe
	done := make(chan error, 1)
	go func() { done <- agg.ServeOne(aggEnd, 0, merged, release) }()
	if err := w.Push(workerEnd); err != nil {
		t.Fatal(err)
	}
	if err := <-merged; err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := w.Pull(workerEnd); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	push := tr.Last("cluster_push")
	pull := tr.Last("cluster_pull")
	if push == nil || pull == nil {
		t.Fatal("missing push/pull spans")
	}
	if push.TraceID != pull.TraceID {
		t.Fatalf("pull trace %016x broke away from push trace %016x", pull.TraceID, push.TraceID)
	}
}
