package sched

import (
	"fmt"
	"sort"
	"sync"
)

// Allocator is the pluggable stage-D2 policy signature shared by every
// allocation function in this package. The serving layers select an
// Allocator from a Registry by name, so policies are configurable from
// CLI flags and config files instead of being wired by function pointer.
type Allocator func(Input) (*Result, error)

// Entry describes one registered allocator.
type Entry struct {
	// Name is the registry key ("content-aware", "baseline", ...).
	Name string
	// Description is a one-line human-readable summary, used by CLIs when
	// listing the available policies.
	Description string
	// Func is the allocator itself.
	Func Allocator
}

// Registry maps allocator names to allocation policies. It is safe for
// concurrent use. The package-level Default registry holds the two
// policies the paper compares; tests and embedders can build private
// registries or Register additional policies under new names.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]Entry)}
}

// Register adds an allocator under name. Registering an empty name, a nil
// function or a name already taken is an error — policies are identities,
// silently replacing one would redirect every config that names it.
func (r *Registry) Register(name, description string, fn Allocator) error {
	if name == "" {
		return fmt.Errorf("sched: empty allocator name")
	}
	if fn == nil {
		return fmt.Errorf("sched: nil allocator %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return fmt.Errorf("sched: allocator %q already registered", name)
	}
	r.entries[name] = Entry{Name: name, Description: description, Func: fn}
	return nil
}

// lookup returns the allocator registered under name.
func (r *Registry) lookup(name string) (Allocator, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, false
	}
	return e.Func, true
}

// MustLookup is lookup with an error naming the known policies — the
// message a CLI wants verbatim when the user typo-ed a flag value.
func (r *Registry) MustLookup(name string) (Allocator, error) {
	fn, ok := r.lookup(name)
	if !ok {
		return nil, fmt.Errorf("sched: unknown allocator %q (have %v)", name, r.names())
	}
	return fn, nil
}

// names returns the registered names in sorted order.
func (r *Registry) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns every entry, sorted by name.
func (r *Registry) All() []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Canonical names of the built-in policies in the Default registry.
const (
	NameContentAware = "content-aware"
	NameBaseline     = "baseline"
)

// Default is the registry every serving layer consults unless handed a
// private one. It starts with the paper's two policies.
var Default = func() *Registry {
	r := NewRegistry()
	for _, e := range []Entry{
		{NameContentAware, "Algorithm 2: dense packing + DVFS slack", AllocateContentAware},
		{NameBaseline, "work of [19]: one tile per core, all cores at fmax", allocateBaseline},
	} {
		if err := r.Register(e.Name, e.Description, e.Func); err != nil {
			panic(err)
		}
	}
	return r
}()

// Lookup finds an allocator in the Default registry.
func Lookup(name string) (Allocator, bool) { return Default.lookup(name) }

// Names lists the Default registry's allocator names, sorted.
func Names() []string { return Default.names() }
