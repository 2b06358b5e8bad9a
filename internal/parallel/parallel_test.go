package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"edgehd/internal/hdc"
	"edgehd/internal/rng"
	"edgehd/internal/telemetry"
)

func TestChunksCoverExactly(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 100, 1000, 1001} {
		spans := Chunks(n)
		if n == 0 {
			if spans != nil {
				t.Fatalf("Chunks(0) = %v, want nil", spans)
			}
			continue
		}
		want := n
		if want > maxChunks {
			want = maxChunks
		}
		if len(spans) != want {
			t.Fatalf("Chunks(%d): %d spans, want %d", n, len(spans), want)
		}
		lo := 0
		for i, s := range spans {
			if s.Lo != lo {
				t.Fatalf("Chunks(%d)[%d].Lo = %d, want %d", n, i, s.Lo, lo)
			}
			if (s.Hi - s.Lo) < 1 {
				t.Fatalf("Chunks(%d)[%d] empty", n, i)
			}
			lo = s.Hi
		}
		if lo != n {
			t.Fatalf("Chunks(%d) ends at %d", n, lo)
		}
		// Near-equal: sizes differ by at most one.
		min, max := n, 0
		for _, s := range spans {
			if (s.Hi - s.Lo) < min {
				min = (s.Hi - s.Lo)
			}
			if (s.Hi - s.Lo) > max {
				max = (s.Hi - s.Lo)
			}
		}
		if max-min > 1 {
			t.Fatalf("Chunks(%d): chunk sizes range %d..%d", n, min, max)
		}
	}
}

func TestRunCoversAllItems(t *testing.T) {
	for _, w := range []int{0, 1, 2, 8} {
		p := New(w)
		if p.Workers() < 1 {
			t.Fatalf("New(%d).Workers() = %d", w, p.Workers())
		}
		const n = 257
		var hits [n]atomic.Int32
		p.Run("test_run", n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: item %d executed %d times", w, i, hits[i].Load())
			}
		}
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d", p.Workers())
	}
	p.SetTelemetry(telemetry.New()) // must not panic
	order := make([]int, 0, 10)
	p.RunChunks("test_nil", Chunks(10), func(ci int, s Span) {
		order = append(order, ci) // safe: inline execution
	})
	for i, ci := range order {
		if ci != i {
			t.Fatalf("nil pool chunk order %v", order)
		}
	}
}

func TestRunErrReturnsFirstErrorInChunkOrder(t *testing.T) {
	p := New(8)
	// Every chunk fails with an error naming its first index; the
	// reported error must always be the chunk-order first, regardless
	// of which goroutine finishes first.
	for trial := 0; trial < 10; trial++ {
		err := p.RunErr("test_err", 64, func(lo, hi int) error {
			if lo == 0 {
				return errors.New("first")
			}
			return fmt.Errorf("chunk at %d", lo)
		})
		if err == nil || err.Error() != "first" {
			t.Fatalf("RunErr returned %v, want first-chunk error", err)
		}
	}
	if err := p.RunErr("test_err", 10, func(lo, hi int) error { return nil }); err != nil {
		t.Fatalf("RunErr = %v on success", err)
	}
	if err := p.RunErr("test_err", 0, func(lo, hi int) error { return errors.New("x") }); err != nil {
		t.Fatalf("RunErr on empty input = %v", err)
	}
}

func TestNestedRunDoesNotDeadlock(t *testing.T) {
	p := New(4)
	var total atomic.Int64
	p.Run("outer", 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.Run("inner", 16, func(ilo, ihi int) {
				total.Add(int64(ihi - ilo))
			})
		}
	})
	if total.Load() != 16*16 {
		t.Fatalf("nested runs executed %d inner items, want %d", total.Load(), 16*16)
	}
}

func TestSumAccsMatchesSequential(t *testing.T) {
	r := rng.New(7)
	const dim, n = 129, 41
	vecs := make([]hdc.Bipolar, n)
	for i := range vecs {
		vecs[i] = hdc.RandomBipolar(dim, r)
	}
	seq := hdc.NewAcc(dim)
	for _, v := range vecs {
		seq.AddBipolar(v)
	}
	for _, w := range []int{1, 2, 8} {
		p := New(w)
		spans := Chunks(n)
		parts := make([]hdc.Acc, len(spans))
		p.RunChunks("test_partials", spans, func(ci int, s Span) {
			acc := hdc.NewAcc(dim)
			for i := s.Lo; i < s.Hi; i++ {
				acc.AddBipolar(vecs[i])
			}
			parts[ci] = acc
		})
		got := p.SumAccs("test_reduce", parts)
		for i := 0; i < dim; i++ {
			if got.Get(i) != seq.Get(i) {
				t.Fatalf("workers=%d: component %d = %d, want %d", w, i, got.Get(i), seq.Get(i))
			}
		}
	}
	var empty hdc.Acc
	if got := New(2).SumAccs("test_reduce", nil); got.Dim() != empty.Dim() {
		t.Fatalf("SumAccs(nil) dim %d", got.Dim())
	}
}

func TestTelemetryInstrumentation(t *testing.T) {
	reg := telemetry.New()
	p := New(4)
	p.SetTelemetry(reg)
	p.Run("stage_a", 100, func(lo, hi int) {})
	p.Run("stage_a", 100, func(lo, hi int) {})
	p.Run("stage_b", 5, func(lo, hi int) {})
	la := telemetry.L("stage", "stage_a")
	lb := telemetry.L("stage", "stage_b")
	if got := reg.Counter("pool_runs_total", la).Value(); got != 2 {
		t.Fatalf("pool_runs_total{stage_a} = %d, want 2", got)
	}
	if got := reg.Counter("pool_runs_total", lb).Value(); got != 1 {
		t.Fatalf("pool_runs_total{stage_b} = %d, want 1", got)
	}
	if got := reg.Counter("pool_chunks_total", la).Value(); got != int64(2*len(Chunks(100))) {
		t.Fatalf("pool_chunks_total{stage_a} = %d, want %d", got, 2*len(Chunks(100)))
	}
	if got := reg.Counter("pool_chunks_total", lb).Value(); got != int64(len(Chunks(5))) {
		t.Fatalf("pool_chunks_total{stage_b} = %d, want %d", got, len(Chunks(5)))
	}
	h := reg.Histogram("pool_stage_seconds", la)
	if h.Count() != 2 {
		t.Fatalf("stage_a observations = %d, want 2", h.Count())
	}
	if d := reg.Gauge("pool_queue_depth", la).Value(); d != 0 {
		t.Fatalf("queue depth after drain = %v", d)
	}
	p.SetTelemetry(nil) // detach must not panic
	p.Run("stage_a", 10, func(lo, hi int) {})
}

func TestValidate(t *testing.T) {
	if err := Validate(-1); err == nil {
		t.Fatal("Validate(-1) = nil")
	}
	if err := Validate(0); err != nil {
		t.Fatalf("Validate(0) = %v", err)
	}
}
