package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"edgehd/internal/hdc"
)

// Model is the read side of a trained classifier the server needs to
// answer queries: shape checks plus the paper's §IV-C confidence-scored
// associative search. *core.Model satisfies it; tests substitute
// instrumented fakes. Implementations must be safe for concurrent
// read-only use — Server fans one batch over pool workers.
type Model interface {
	Dim() int
	Classes() int
	Confidence(q hdc.Bipolar) (class int, conf float64)
}

// Registry maps tenant names to their serving models with copy-on-write
// swap semantics: Set publishes a whole new map, so readers that
// snapshotted the previous map (or the previous model) keep a fully
// consistent view for the rest of their query. A retrain therefore
// swaps the tenant's model between queries, never under one.
//
// Reads are a single atomic pointer load plus a map lookup — no lock on
// the query path. Writers serialize on a mutex.
type Registry struct {
	mu     sync.Mutex
	models atomic.Pointer[map[string]Model]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	empty := make(map[string]Model)
	r.models.Store(&empty)
	return r
}

// Get returns the model currently published for tenant.
func (r *Registry) Get(tenant string) (Model, bool) {
	m, ok := (*r.models.Load())[tenant]
	return m, ok
}

// Set publishes model as tenant's serving model, replacing any previous
// one. In-flight queries that already snapshotted the old model finish
// against it; queries admitted afterwards see the new one.
func (r *Registry) Set(tenant string, model Model) error {
	if tenant == "" {
		return fmt.Errorf("serve: empty tenant name")
	}
	if model == nil {
		return fmt.Errorf("serve: nil model for tenant %q", tenant)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.models.Load()
	next := make(map[string]Model, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[tenant] = model
	r.models.Store(&next)
	return nil
}
