// Package tenancy holds the multi-tenant QoS policy the serving layers
// consult at their front doors: per-tenant token-bucket admission rates,
// weighted core shares, and priority classes.
//
// The registry is deliberately small and leaf-level (it imports nothing
// from the serving stack) so every layer can depend on it: serve.Fleet
// charges the token bucket on submission, the dist master charges it at
// the network edge before routing, and core.Server reads weights and
// priorities when it apportions platform cores across tenants and orders
// stage-D2 admission (internal/core/admission.go, DESIGN.md §9).
//
// Unknown tenant ids resolve to the default policy (weight 1, priority 0,
// unlimited rate) rather than being refused: tenancy is an overlay on the
// historical single-tenant service, and a deployment that never mentions
// tenants behaves exactly as before.
package tenancy

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// DefaultID is the tenant every submission without an explicit tenant id
// belongs to. The empty string is its internal spelling: sessions carry
// "" through the core and wire layers (keeping the v1 encodings
// byte-identical), and telemetry folds "" to this name.
const DefaultID = "default"

// ErrRateLimited is returned by Admit when a tenant's token bucket is
// empty: the submission should be refused (HTTP 429 at the network edge)
// and retried later, not queued.
var ErrRateLimited = errors.New("tenancy: rate limit exceeded")

// Tenant is one tenant's QoS policy.
type Tenant struct {
	// ID names the tenant ("" is the default tenant).
	ID string `json:"id"`
	// Weight is the tenant's relative share of platform cores when
	// several tenants compete (0 → 1). Cores are apportioned across the
	// active tenants proportionally to weight before the per-session
	// stage-D2 solve (sched.ApportionCores).
	Weight int `json:"weight,omitempty"`
	// Priority is the default priority class of the tenant's sessions
	// (0 = best effort; higher preempts). A submission may carry its own
	// priority, which overrides this default when non-zero.
	Priority int `json:"priority,omitempty"`
	// Rate is the token-bucket refill rate in submissions per second.
	// 0 leaves the tenant unlimited.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the bucket capacity (0 → max(1, ceil(Rate))). A full
	// bucket lets a tenant submit Burst sessions back to back before the
	// refill rate binds.
	Burst int `json:"burst,omitempty"`
}

// withDefaults fills the zero values.
func (t Tenant) withDefaults() Tenant {
	if t.Weight <= 0 {
		t.Weight = 1
	}
	if t.Rate > 0 && t.Burst <= 0 {
		t.Burst = int(t.Rate + 0.999)
		if t.Burst < 1 {
			t.Burst = 1
		}
	}
	return t
}

// bucket is one registered tenant's live token-bucket state.
type bucket struct {
	policy Tenant
	tokens float64
	last   time.Time
}

// Registry maps tenant ids to policy and enforces the token buckets.
// Safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	now  func() time.Time
	byID map[string]*bucket
}

// NewRegistry builds a registry from the given tenant policies. A policy
// with ID "" (or DefaultID) replaces the default tenant's policy.
func NewRegistry(tenants ...Tenant) *Registry {
	r := &Registry{now: time.Now, byID: make(map[string]*bucket, len(tenants))}
	for _, t := range tenants {
		r.register(t)
	}
	return r
}

// register adds (or replaces) one tenant's policy. The bucket starts
// full.
func (r *Registry) register(t Tenant) {
	t = t.withDefaults()
	id := t.ID
	if id == DefaultID {
		id = ""
		t.ID = ""
	}
	r.mu.Lock()
	r.byID[id] = &bucket{policy: t, tokens: float64(t.Burst), last: r.now()}
	r.mu.Unlock()
}

// canonical maps the default tenant's public name onto its internal
// empty-string spelling.
func canonical(id string) string {
	if id == DefaultID {
		return ""
	}
	return id
}

// lookup returns the policy for a tenant id. Unknown ids get the default
// policy (weight 1, priority 0, unlimited) under their own id.
func (r *Registry) lookup(id string) Tenant {
	id = canonical(id)
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.byID[id]; ok {
		return b.policy
	}
	return Tenant{ID: id}.withDefaults()
}

// Weight returns the tenant's core-share weight (≥ 1).
func (r *Registry) Weight(id string) int {
	return r.lookup(id).Weight
}

// Priority resolves a submission's effective priority class: the
// explicit request priority when non-zero, the tenant's default
// otherwise.
func (r *Registry) Priority(id string, requested int) int {
	if requested != 0 {
		return requested
	}
	return r.lookup(id).Priority
}

// tenants lists the registered tenant ids in sorted order (the default
// tenant, when registered explicitly, appears as DefaultID).
func (r *Registry) tenants() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.byID))
	for id := range r.byID {
		if id == "" {
			id = DefaultID
		}
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Admit charges one submission against the tenant's token bucket,
// returning ErrRateLimited (wrapped with the tenant id) when the bucket
// is empty. Tenants with no configured rate — including unknown tenants —
// are always admitted.
func (r *Registry) Admit(id string) error {
	id = canonical(id)
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.byID[id]
	if !ok || b.policy.Rate <= 0 {
		return nil
	}
	now := r.now()
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens += dt.Seconds() * b.policy.Rate
		if max := float64(b.policy.Burst); b.tokens > max {
			b.tokens = max
		}
	}
	b.last = now
	if b.tokens < 1 {
		name := id
		if name == "" {
			name = DefaultID
		}
		return fmt.Errorf("tenant %q: %w", name, ErrRateLimited)
	}
	b.tokens--
	return nil
}

// WithoutRates derives a registry with the same tenants, weights and
// priorities but no admission rates — every tenant's bucket is
// unlimited. This is the registry a dist agent runs with: the master
// already charged the fleet-wide bucket at the routing front door, so
// the agent enforcing the rate again would double-charge every routed
// submission.
func (r *Registry) WithoutRates() *Registry {
	stripped := NewRegistry()
	for _, id := range r.tenants() {
		t := r.lookup(id)
		t.Rate, t.Burst = 0, 0
		stripped.register(t)
	}
	return stripped
}

// Config is the on-disk registry format (the -tenants-config file):
//
//	{"tenants": [
//	  {"id": "batch", "weight": 3, "rate": 2.5},
//	  {"id": "er", "weight": 1, "priority": 9}
//	]}
type Config struct {
	Tenants []Tenant `json:"tenants"`
}

// maxWeight bounds a configured weight: the allocator sums the competing
// tenants' weights and multiplies them by core counts, and a config file
// must not be able to overflow either.
const maxWeight = 1 << 20

// parse reads a Config and builds its registry.
func parse(r io.Reader) (*Registry, error) {
	var cfg Config
	dec := json.NewDecoder(r)
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("tenancy: parse config: %w", err)
	}
	seen := make(map[string]bool, len(cfg.Tenants))
	for _, t := range cfg.Tenants {
		id := canonical(t.ID)
		if seen[id] {
			return nil, fmt.Errorf("tenancy: duplicate tenant %q", t.ID)
		}
		seen[id] = true
		if t.Weight < 0 || t.Rate < 0 || t.Burst < 0 {
			return nil, fmt.Errorf("tenancy: tenant %q: negative weight/rate/burst", t.ID)
		}
		if t.Weight > maxWeight {
			return nil, fmt.Errorf("tenancy: tenant %q: weight %d above %d", t.ID, t.Weight, maxWeight)
		}
	}
	return NewRegistry(cfg.Tenants...), nil
}

// LoadFile reads a Config file and builds its registry.
func LoadFile(path string) (*Registry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reg, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reg, nil
}
