package sched

import (
	"slices"
	"strings"
	"testing"
)

// TestDefaultRegistryHasBuiltins: the paper's two policies — and nothing
// else — are selectable by name and produce the same results as the
// functions they wrap.
func TestDefaultRegistryHasBuiltins(t *testing.T) {
	want := []string{NameBaseline, NameContentAware}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want exactly %v", got, want)
	}
	for _, name := range want {
		fn, ok := Lookup(name)
		if !ok || fn == nil {
			t.Fatalf("built-in allocator %q not registered", name)
		}
	}
	in := input(demand(0, ms(4), ms(4), ms(4)))
	direct, err := AllocateContentAware(in)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := Lookup(NameContentAware)
	viaReg, err := fn(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaReg.Admitted) != len(direct.Admitted) || viaReg.CoresUsed != direct.CoresUsed {
		t.Fatalf("registry lookup returned a different policy: %+v vs %+v", viaReg, direct)
	}
}

// TestRegistryRejectsDuplicatesAndNils pins the registration contract.
func TestRegistryRejectsDuplicatesAndNils(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("x", "", AllocateContentAware); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("x", "", allocateBaseline); err == nil {
		t.Fatal("duplicate registration allowed")
	}
	if err := r.Register("", "", allocateBaseline); err == nil {
		t.Fatal("empty name allowed")
	}
	if err := r.Register("y", "", nil); err == nil {
		t.Fatal("nil allocator allowed")
	}
	if _, ok := r.lookup("missing"); ok {
		t.Fatal("lookup found an unregistered name")
	}
	if _, err := r.MustLookup("missing"); err == nil || !strings.Contains(err.Error(), "x") {
		t.Fatalf("MustLookup error should name the known policies, got %v", err)
	}
}

// TestRegistryAllIsSortedAndDescribed: All() is deterministic and carries
// the descriptions CLIs print.
func TestRegistryAllIsSortedAndDescribed(t *testing.T) {
	entries := Default.All()
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Name >= entries[i].Name {
			t.Fatalf("All() not sorted: %q before %q", entries[i-1].Name, entries[i].Name)
		}
	}
	for _, e := range entries {
		if e.Description == "" {
			t.Fatalf("built-in %q has no description", e.Name)
		}
	}
}
