package lint

import (
	"strings"
	"testing"
)

// The dataflow rules (det-rand-transitive, goroutine-leak and
// lock-across-io) ride on the module call graph; their
// fixtures therefore span multiple packages where the single-file
// rules' fixtures do not.

func TestDetRandTransitiveFiresAcrossPackages(t *testing.T) {
	diags := byRule(checkFixture(t, map[string]string{
		"internal/core/use.go": `package core

import "edgehd/internal/helper"

func Stamp() int64 { return helper.Stamp() }
`,
		"internal/helper/h.go": `package helper

import "time"

func Stamp() int64 { return deep() }

func deep() int64 { return time.Now().UnixNano() }
`,
	}), "det-rand-transitive")
	if len(diags) != 1 {
		t.Fatalf("det-rand-transitive diagnostics = %d, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "helper.Stamp → helper.deep → time.Now") {
		t.Errorf("diagnostic should render the call chain, got %q", diags[0].Message)
	}
	if diags[0].File != "internal/core/use.go" {
		t.Errorf("diagnostic should anchor at the boundary call site, got %s", diags[0].File)
	}
}

func TestDetRandTransitiveExemptsSanctionedPackages(t *testing.T) {
	// Chains that pass through the telemetry package are sanctioned:
	// its instruments encapsulate the clock.
	diags := byRule(checkFixture(t, map[string]string{
		"internal/core/use.go": `package core

import "edgehd/internal/telemetry"

func Timed() { telemetry.Observe() }
`,
		"internal/telemetry/t.go": `package telemetry

import "time"

func Observe() { _ = time.Now() }
`,
	}), "det-rand-transitive")
	if len(diags) != 0 {
		t.Fatalf("det-rand-transitive fired through a clock-sanctioned package: %v", diags)
	}
}

func TestDetRandTransitiveReportsRandToo(t *testing.T) {
	diags := byRule(checkFixture(t, map[string]string{
		"internal/hdc/use.go": `package hdc

import "edgehd/internal/noise"

func Jitter() float64 { return noise.Roll() }
`,
		"internal/noise/n.go": `package noise

import "math/rand"

func Roll() float64 { return rand.Float64() }
`,
	}), "det-rand-transitive")
	if len(diags) != 1 {
		t.Fatalf("det-rand-transitive diagnostics = %d, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "rand.Float64") {
		t.Errorf("diagnostic should name the randomness source, got %q", diags[0].Message)
	}
}

// leakFixture is the injected-regression fixture the acceptance
// criteria call for: a deliberately leaked goroutine that the gate
// must catch.
const leakFixture = `package worker

func Leak(jobs chan int) {
	go func() {
		for j := range jobs {
			_ = j
		}
	}()
}
`

func TestGoroutineLeakCatchesInjectedRegression(t *testing.T) {
	diags := byRule(checkFixture(t, map[string]string{
		"internal/worker/w.go": leakFixture,
	}), "goroutine-leak")
	if len(diags) != 1 {
		t.Fatalf("goroutine-leak diagnostics = %d, want 1 (the injected leak): %v", len(diags), diags)
	}
}

func TestGoroutineLeakAcceptsShutdownTies(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"waitgroup", `package worker

import "sync"

func Run(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}
`},
		{"done channel", `package worker

func Run(done chan struct{}) {
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
		}
	}()
}
`},
		{"context", `package worker

import "context"

func Run(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}
`},
		{"range over signal channel", `package worker

func Run(quit chan struct{}) {
	go func() {
		for range quit {
		}
	}()
}
`},
		{"named worker one level deep", `package worker

func loop(done chan struct{}) {
	<-done
}

func Run(done chan struct{}) {
	go loop(done)
}
`},
		{"helper called from closure", `package worker

import "sync"

func work(wg *sync.WaitGroup) {
	defer wg.Done()
}

func Run(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		work(wg)
	}()
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := byRule(checkFixture(t, map[string]string{
				"internal/worker/w.go": tc.src,
			}), "goroutine-leak")
			if len(diags) != 0 {
				t.Fatalf("goroutine-leak fired on a tied goroutine: %v", diags)
			}
		})
	}
}

func TestGoroutineLeakFlagsUnresolvableLaunch(t *testing.T) {
	// A goroutine launched through a function value cannot be proven
	// tied; the rule is conservative and the escape hatch is a
	// justified //hdlint:allow directive.
	diags := byRule(checkFixture(t, map[string]string{
		"internal/worker/w.go": `package worker

func Run(f func()) {
	go f()
}

func Sanctioned(f func()) {
	go f() //hdlint:allow goroutine-leak caller bounds the lifetime
}
`,
	}), "goroutine-leak")
	if len(diags) != 1 {
		t.Fatalf("goroutine-leak diagnostics = %d, want 1 (directive suppresses the second): %v", len(diags), diags)
	}
}

func TestLockAcrossIOFiresOnDirectIO(t *testing.T) {
	diags := byRule(checkFixture(t, map[string]string{
		"internal/store/s.go": `package store

import (
	"os"
	"sync"
)

type Store struct {
	mu   sync.Mutex
	path string
}

func (s *Store) Flush(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.WriteFile(s.path, data, 0o644)
}
`,
	}), "lock-across-io")
	if len(diags) != 1 {
		t.Fatalf("lock-across-io diagnostics = %d, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "os.WriteFile") {
		t.Errorf("diagnostic should name the I/O call, got %q", diags[0].Message)
	}
}

func TestLockAcrossIOFiresOnChannelOps(t *testing.T) {
	diags := byRule(checkFixture(t, map[string]string{
		"internal/store/s.go": `package store

import "sync"

type Q struct {
	mu sync.Mutex
	ch chan int
}

func (q *Q) Put(v int) {
	q.mu.Lock()
	q.ch <- v
	q.mu.Unlock()
}
`,
	}), "lock-across-io")
	if len(diags) != 1 {
		t.Fatalf("lock-across-io diagnostics = %d, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "channel send") {
		t.Errorf("diagnostic should name the channel send, got %q", diags[0].Message)
	}
}

func TestLockAcrossIOFiresTransitively(t *testing.T) {
	// The blocking operation hides two module calls deep; only the call
	// graph sees it.
	diags := byRule(checkFixture(t, map[string]string{
		"internal/store/s.go": `package store

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) publish() { s.ch <- 1 }

func (s *S) indirect() { s.publish() }

func (s *S) Update() {
	s.mu.Lock()
	s.indirect()
	s.mu.Unlock()
}
`,
	}), "lock-across-io")
	if len(diags) != 1 {
		t.Fatalf("lock-across-io diagnostics = %d, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "indirect") {
		t.Errorf("diagnostic should name the locked call, got %q", diags[0].Message)
	}
}

func TestLockAcrossIOSilentOnNarrowedSection(t *testing.T) {
	// Copy under the lock, block outside: the recommended pattern must
	// stay silent, including when the I/O sits in a deferred cleanup or
	// a closure that runs later.
	diags := byRule(checkFixture(t, map[string]string{
		"internal/store/s.go": `package store

import (
	"os"
	"sync"
)

type Store struct {
	mu   sync.Mutex
	data []byte
	path string
}

func (s *Store) Flush() error {
	s.mu.Lock()
	snapshot := append([]byte(nil), s.data...)
	path := s.path
	s.mu.Unlock()
	return os.WriteFile(path, snapshot, 0o644)
}

func (s *Store) Register(defers *[]func()) {
	s.mu.Lock()
	path := s.path
	*defers = append(*defers, func() { _ = os.Remove(path) })
	s.mu.Unlock()
}
`,
	}), "lock-across-io")
	if len(diags) != 0 {
		t.Fatalf("lock-across-io fired on a narrowed critical section: %v", diags)
	}
}

func TestLockAcrossIODirectiveOnLockLineSuppressesSection(t *testing.T) {
	// One directive on the Lock() line covers the whole section — the
	// escape hatch for intentionally serialized I/O.
	diags := byRule(checkFixture(t, map[string]string{
		"internal/store/s.go": `package store

import (
	"os"
	"sync"
)

type Ring struct {
	mu   sync.Mutex
	path string
}

func (r *Ring) Capture(data []byte) error {
	r.mu.Lock() //hdlint:allow lock-across-io captures are serialized by design
	defer r.mu.Unlock()
	return os.WriteFile(r.path, data, 0o600)
}
`,
	}), "lock-across-io")
	if len(diags) != 0 {
		t.Fatalf("directive on the Lock line should suppress the section: %v", diags)
	}
}

func TestDirectiveCommaListWithSpaces(t *testing.T) {
	// One directive line may name several rules, with or without spaces
	// after the commas.
	diags := checkFixture(t, map[string]string{
		"internal/core/v.go": `package core

import "time"

func Must(ok bool) {
	if !ok {
		panic(time.Now().String()) //hdlint:allow panic-policy, det-rand sanctioned guard
	}
}
`,
	})
	for _, d := range diags {
		if d.Rule == "panic-policy" || d.Rule == "det-rand" {
			t.Fatalf("comma list with spaces not honored: %v", d)
		}
	}
}
