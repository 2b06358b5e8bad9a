// Package parallel is EdgeHD's deterministic parallel execution engine:
// a small worker pool that fans chunked map work over goroutines while
// guaranteeing that every output is byte-identical to the sequential
// path, for any worker count.
//
// The determinism contract rests on three rules:
//
//  1. Chunk boundaries depend only on the input length — never on the
//     worker count — so the same input always splits the same way
//     ([Chunks]).
//  2. Workers write results into chunk-indexed slots; reductions
//     consume those slots in fixed chunk order, never in completion
//     order ([Pool.RunChunks], [Pool.SumAccs]).
//  3. Randomness never crosses goroutines: chunk work that needs random
//     numbers gets its own seeded rng.Source, created before the
//     fan-out.
//
// Under those rules the only parallel-order-dependent operation left is
// integer accumulation, which is associative and commutative, so the
// fan-out is invisible in the results. Float reductions (dot products,
// normalization) are deliberately NOT chunked by this package — float
// addition does not commute bitwise, so those stay inside a chunk where
// they run in the exact sequential order.
//
// A nil *Pool (and a 1-worker pool) executes everything inline in chunk
// order — the exact legacy sequential path.
package parallel

import (
	"fmt"
	"runtime"
	"sync"

	"edgehd/internal/telemetry"
)

// Span is a half-open index range [Lo, Hi) over a slice of work items.
type Span struct {
	Lo, Hi int
}

// maxChunks caps how many chunks an input splits into. The cap is a
// fixed constant — independent of GOMAXPROCS and of the pool's worker
// count — so chunk boundaries, per-chunk sub-seeds and reduction trees
// are identical no matter how many workers execute them. 64 keeps
// per-chunk scheduling overhead negligible while load-balancing well
// past any worker count the hardware offers.
const maxChunks = 64

// Chunks splits n work items into at most maxChunks near-equal spans in
// index order. The split depends only on n: callers can derive
// per-chunk state (partial accumulators, rng sub-streams) knowing the
// layout is stable across worker counts and runs.
func Chunks(n int) []Span {
	if n <= 0 {
		return nil
	}
	c := n
	if c > maxChunks {
		c = maxChunks
	}
	spans := make([]Span, c)
	lo := 0
	for i := 0; i < c; i++ {
		// Distribute the remainder over the leading chunks so sizes
		// differ by at most one.
		hi := lo + n/c
		if i < n%c {
			hi++
		}
		spans[i] = Span{Lo: lo, Hi: hi}
		lo = hi
	}
	return spans
}

// Pool executes chunked work over a fixed number of workers. A nil Pool
// is valid and runs everything inline — the sequential path. Pools are
// safe for concurrent use and may be shared across the whole stack.
type Pool struct {
	workers int
	met     poolMetrics
}

// poolMetrics holds the pool's telemetry state. Every pool series is
// labeled by stage — run/chunk volume, queue depth, and wall time all
// resolve lazily per stage name at Run time — so the exposition breaks
// pool load down by pipeline stage instead of one process-wide blob.
// Everything is nil, hence no-op, until SetTelemetry attaches a
// registry.
type poolMetrics struct {
	reg *telemetry.Registry

	mu     sync.Mutex
	stages map[string]*stageInstruments
}

// stageInstruments is one stage's resolved label set.
type stageInstruments struct {
	runs   *telemetry.Counter
	chunks *telemetry.Counter
	queue  *telemetry.Gauge
	hist   *telemetry.Histogram
}

// New returns a pool with the given worker count. Non-positive n
// selects runtime.GOMAXPROCS(0); n == 1 yields a pool whose every Run
// executes inline in chunk order — the exact legacy sequential path.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's worker count (1 on a nil receiver, which
// executes sequentially).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// SetTelemetry attaches a metrics registry; nil detaches it. Every
// series is labeled per stage: run volume as
// pool_runs_total{stage="..."}, chunk volume as
// pool_chunks_total{stage="..."}, queue depth as
// pool_queue_depth{stage="..."}, and wall time as
// pool_stage_seconds{stage="..."}. Safe on a nil pool (no-op).
func (p *Pool) SetTelemetry(reg *telemetry.Registry) {
	if p == nil {
		return
	}
	p.met = poolMetrics{reg: reg}
	if reg != nil {
		p.met.stages = make(map[string]*stageInstruments)
		reg.SetHelp("pool_runs_total", "pool Run invocations by pipeline stage")
		reg.SetHelp("pool_chunks_total", "work chunks executed by pipeline stage")
		reg.SetHelp("pool_queue_depth", "chunks waiting for a worker, by stage")
		reg.SetHelp("pool_stage_seconds", "wall time of one pool run, by stage")
	}
}

// stageMet resolves (and caches) the labeled instrument set for a
// stage. Nil while telemetry is detached.
func (p *Pool) stageMet(stage string) *stageInstruments {
	if p == nil || p.met.reg == nil {
		return nil
	}
	p.met.mu.Lock()
	defer p.met.mu.Unlock()
	si, ok := p.met.stages[stage]
	if !ok {
		l := telemetry.L("stage", stage)
		si = &stageInstruments{
			runs:   p.met.reg.Counter("pool_runs_total", l),
			chunks: p.met.reg.Counter("pool_chunks_total", l),
			queue:  p.met.reg.Gauge("pool_queue_depth", l),
			hist:   p.met.reg.Histogram("pool_stage_seconds", l),
		}
		p.met.stages[stage] = si
	}
	return si
}

// Run splits n items via Chunks and calls fn once per chunk with its
// [lo, hi) range. With more than one worker the chunks execute
// concurrently; fn must only write to item-indexed or chunk-indexed
// slots. Run returns once every chunk completed. stage labels the
// pool_stage_seconds telemetry series.
func (p *Pool) Run(stage string, n int, fn func(lo, hi int)) {
	p.RunChunks(stage, Chunks(n), func(_ int, s Span) { fn(s.Lo, s.Hi) })
}

// RunErr is Run for chunk bodies that can fail. Every chunk still
// executes; the returned error is the first failure in chunk order
// (never completion order), so error reporting is as deterministic as
// the data path.
func (p *Pool) RunErr(stage string, n int, fn func(lo, hi int) error) error {
	spans := Chunks(n)
	if len(spans) == 0 {
		return nil
	}
	errs := make([]error, len(spans))
	p.RunChunks(stage, spans, func(ci int, s Span) {
		errs[ci] = fn(s.Lo, s.Hi)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunChunks executes fn once per span, passing the chunk index so the
// body can address chunk-indexed state (partial accumulators, rng
// sub-streams). Chunks are claimed from a queue in index order; with a
// nil pool, one worker, or a single span, everything runs inline in
// index order.
func (p *Pool) RunChunks(stage string, spans []Span, fn func(ci int, s Span)) {
	if len(spans) == 0 {
		return
	}
	sm := p.stageMet(stage)
	var stop func()
	if sm != nil {
		sm.runs.Inc()
		sm.chunks.Add(int64(len(spans)))
		stop = sm.hist.StartTimer()
	}
	w := p.Workers()
	if w > len(spans) {
		w = len(spans)
	}
	if w <= 1 {
		for ci, s := range spans {
			fn(ci, s)
		}
		if stop != nil {
			stop()
		}
		return
	}
	// Fresh goroutines per call keep nested Run calls (a parallel
	// hierarchy query inside a parallel accuracy sweep) deadlock-free:
	// there is no fixed worker set to exhaust.
	jobs := make(chan int, len(spans))
	for ci := range spans {
		jobs <- ci
	}
	close(jobs)
	if sm != nil {
		sm.queue.Set(float64(len(spans)))
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range jobs {
				if sm != nil {
					sm.queue.Add(-1)
				}
				fn(ci, spans[ci])
			}
		}()
	}
	wg.Wait()
	if sm != nil {
		sm.queue.Set(0)
	}
	if stop != nil {
		stop()
	}
}

// Validate reports an error for a negative worker count that a caller
// passed through from configuration (0 means "auto" and is fine).
func Validate(workers int) error {
	if workers < 0 {
		return fmt.Errorf("parallel: negative worker count %d", workers)
	}
	return nil
}
