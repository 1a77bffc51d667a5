package tenancy

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// WithClock replaces the registry's clock, so token-bucket refill is
// deterministic and the rate-limit tests do not sleep. Returns the
// registry for chaining.
func (r *Registry) WithClock(now func() time.Time) *Registry {
	r.mu.Lock()
	r.now = now
	r.mu.Unlock()
	return r
}

func TestRegistryDefaultsAndLookup(t *testing.T) {
	r := NewRegistry(
		Tenant{ID: "batch", Weight: 3, Rate: 2, Burst: 4},
		Tenant{ID: "er", Priority: 9},
	)
	if got := r.Weight("batch"); got != 3 {
		t.Fatalf("batch weight = %d, want 3", got)
	}
	if got := r.Weight("er"); got != 1 {
		t.Fatalf("er default weight = %d, want 1", got)
	}
	if got := r.Weight("unknown"); got != 1 {
		t.Fatalf("unknown weight = %d, want 1", got)
	}
	if got := r.Priority("er", 0); got != 9 {
		t.Fatalf("er default priority = %d, want 9", got)
	}
	if got := r.Priority("er", 2); got != 2 {
		t.Fatalf("explicit priority = %d, want 2 (override)", got)
	}
	if got := r.Priority("unknown", 0); got != 0 {
		t.Fatalf("unknown priority = %d, want 0", got)
	}
	if got := r.tenants(); len(got) != 2 || got[0] != "batch" || got[1] != "er" {
		t.Fatalf("Tenants() = %v", got)
	}
}

func TestRegistryDefaultTenantAliases(t *testing.T) {
	r := NewRegistry(Tenant{ID: DefaultID, Weight: 5})
	// "" and "default" are the same tenant.
	if got := r.Weight(""); got != 5 {
		t.Fatalf(`Weight("") = %d, want 5`, got)
	}
	if got := r.Weight(DefaultID); got != 5 {
		t.Fatalf("Weight(default) = %d, want 5", got)
	}
}

func TestTokenBucketDeterministic(t *testing.T) {
	now := time.Unix(0, 0)
	r := NewRegistry().WithClock(func() time.Time { return now })
	r.register(Tenant{ID: "t", Rate: 1, Burst: 2})

	// Burst drains, then the bucket refuses.
	for i := 0; i < 2; i++ {
		if err := r.Admit("t"); err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
	}
	err := r.Admit("t")
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-burst admit err = %v, want ErrRateLimited", err)
	}
	if !strings.Contains(err.Error(), `"t"`) {
		t.Fatalf("rate-limit error %q does not name the tenant", err)
	}

	// One second refills exactly one token.
	now = now.Add(time.Second)
	if err := r.Admit("t"); err != nil {
		t.Fatalf("post-refill admit: %v", err)
	}
	if err := r.Admit("t"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second post-refill admit err = %v, want ErrRateLimited", err)
	}

	// Unlimited tenants never hit the bucket.
	for i := 0; i < 100; i++ {
		if err := r.Admit("free"); err != nil {
			t.Fatalf("unlimited admit: %v", err)
		}
	}
}

func TestParseConfig(t *testing.T) {
	cfg := `{"tenants": [
		{"id": "batch", "weight": 3, "rate": 2.5},
		{"id": "er", "priority": 9}
	]}`
	r, err := parse(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Weight("batch"); got != 3 {
		t.Fatalf("batch weight = %d, want 3", got)
	}
	if got := r.lookup("batch").Burst; got != 3 {
		t.Fatalf("batch burst = %d, want ceil(2.5)=3", got)
	}
	if got := r.Priority("er", 0); got != 9 {
		t.Fatalf("er priority = %d, want 9", got)
	}

	if _, err := parse(strings.NewReader(`{"tenants":[{"id":"a"},{"id":"a"}]}`)); err == nil {
		t.Fatal("duplicate tenant id accepted")
	}
	if _, err := parse(strings.NewReader(`{"tenants":[{"id":"a","weight":-1}]}`)); err == nil {
		t.Fatal("negative weight accepted")
	}
	// Three such weights sum to zero in 64 bits — the allocator's divisor.
	if _, err := parse(strings.NewReader(`{"tenants":[{"id":"a","weight":9223372036854775807}]}`)); err == nil {
		t.Fatal("a weight that overflows the allocator's sums accepted")
	}
	if _, err := parse(strings.NewReader(`not json`)); err == nil {
		t.Fatal("malformed config accepted")
	}
}

// FuzzTenancyParse: a tenants config is operator input read at start-up.
// Whatever the bytes, Parse returns an error or a registry every layer can
// use as is — no panic, no more tenants than the input could spell, and
// weights that sum without overflow (sched.ApportionCores divides by the
// sum).
func FuzzTenancyParse(f *testing.F) {
	f.Add([]byte(`{"tenants":[{"id":"batch","weight":3,"rate":2.5},{"id":"er","weight":1,"priority":9}]}`))
	f.Add([]byte(`{"tenants":[{"id":"default","rate":0.5,"burst":2},{"id":"","weight":2}]}`))
	f.Add([]byte(`{"tenants":[{"id":"a","weight":9223372036854775807},{"id":"b","weight":9223372036854775807},{"id":"c","weight":2}]}`))
	f.Add([]byte(`{"tenants":[{"id":"a","rate":1e308,"burst":-1}]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		reg, err := parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		ids := reg.tenants()
		if len(ids) > len(data) {
			t.Fatalf("%d tenants out of %d bytes", len(ids), len(data))
		}
		wsum := 0
		for _, id := range ids {
			p := reg.lookup(id)
			if p.Weight < 1 || p.Rate < 0 || (p.Rate > 0 && p.Burst < 1) {
				t.Fatalf("tenant %q parsed to an unusable policy %+v", id, p)
			}
			if wsum += p.Weight; wsum < p.Weight {
				t.Fatalf("weights overflow at tenant %q (%d)", id, p.Weight)
			}
			if err := reg.Admit(id); err != nil && !errors.Is(err, ErrRateLimited) {
				t.Fatalf("Admit(%q): %v", id, err)
			}
			reg.Priority(id, 0)
		}
		if got := reg.WithoutRates().tenants(); len(got) != len(ids) {
			t.Fatalf("WithoutRates kept %d of %d tenants", len(got), len(ids))
		}
	})
}
