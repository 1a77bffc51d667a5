package workload

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// warmStore builds a store with keys observed once and more than once
// across two classes.
func warmStore() *Store {
	s := NewStore()
	brain := s.ForClass("brain")
	chest := s.ForClass("chest")
	for i := 0; i < 40; i++ {
		k := MakeKey(64*64*(i%4+1), i%3, i%2, 22+5*(i%5), 8<<(i%4))
		brain.Observe(k, time.Duration(100+i*13)*time.Microsecond)
		if i%2 == 0 {
			brain.Observe(k, time.Duration(90+i*11)*time.Microsecond)
		}
		if i%3 == 0 {
			chest.Observe(k, time.Duration(200+i*7)*time.Microsecond)
		}
	}
	return s
}

// TestStoreSaveLoadRoundTrip: estimates and observation counts survive a
// save/load cycle exactly.
func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s := warmStore()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Classes(), s.Classes(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("classes %v, want %v", got, want)
	}
	for _, class := range s.Classes() {
		orig, back := s.ForClass(class), loaded.ForClass(class)
		if orig.observations() != back.observations() {
			t.Fatalf("%s: observations %d vs %d", class, orig.observations(), back.observations())
		}
		keys := orig.Keys()
		if len(keys) == 0 {
			t.Fatalf("%s: warm store has no keys", class)
		}
		for _, k := range keys {
			if got, want := back.Estimate(k), orig.Estimate(k); got != want {
				t.Fatalf("%s %v: estimate %v, want %v", class, k, got, want)
			}
			if bh, oh := back.m[k], orig.m[k]; bh == nil || *bh != *oh {
				t.Fatalf("%s %v: entry %+v, want %+v", class, k, bh, oh)
			}
		}
		// An unknown key exercises the nearest-key path.
		cold := MakeKey(100*100, 2, 1, 42, 64)
		if got, want := back.Estimate(cold), orig.Estimate(cold); got != want {
			t.Fatalf("%s: cold-key estimate %v, want %v", class, got, want)
		}
	}
}

// TestStoreSaveDeterministic: identical state yields identical bytes.
func TestStoreSaveDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := warmStore().Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := warmStore().Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of identical stores differ")
	}
}

// TestLoadStoreRejectsGarbage: version and shape errors are reported, not
// silently swallowed into an empty store.
func TestLoadStoreRejectsGarbage(t *testing.T) {
	if _, err := LoadStore(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadStore(strings.NewReader(`{"version": 99, "classes": []}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := LoadStore(strings.NewReader(`{"version": 1, "classes": [{"class": ""}]}`)); err == nil {
		t.Fatal("empty class name accepted")
	}
}

// TestLoadStoreRefusesHostileAggregates: numbers Save could never have
// written are an error at load, not a negative stage-D1 estimate (and a
// dead shard) some rounds later.
func TestLoadStoreRefusesHostileAggregates(t *testing.T) {
	doc := func(class, key string) string {
		return `{"version":1,"classes":[{"class":"brain","keys":[{"key":{},` + key + `}]` + class + `}]}`
	}
	for name, in := range map[string]string{
		"negative sum":        doc("", `"count":2,"sum_ns":-5000000`),
		"negative ewma":       doc("", `"count":1,"sum_ns":1,"cal_count":1,"cal_ewma_ns":-1e300`),
		"ewma past the clamp": doc("", `"count":1,"sum_ns":1,"cal_count":1,"cal_ewma_ns":1e300`),
		"overflowing count":   doc("", `"count":9223372036854775808,"sum_ns":1`),
		"sum on zero count":   doc("", `"count":0,"sum_ns":7`),
		"sum past the clamp":  doc("", `"count":1,"sum_ns":9000000000000000000`),
	} {
		if s, err := LoadStore(strings.NewReader(in)); err == nil {
			t.Errorf("%s: loaded, Estimate = %v", name, s.ForClass("brain").Estimate(Key{}))
		}
	}
	if _, err := LoadStore(strings.NewReader(doc("", `"count":2,"sum_ns":5000000`))); err != nil {
		t.Fatalf("well-formed document refused: %v", err)
	}
	// The class aggregates of older documents reach no estimate, so even
	// hostile values load and estimate exactly as the document without them.
	plain, err := LoadStore(strings.NewReader(doc("", `"count":1,"sum_ns":1`)))
	if err != nil {
		t.Fatal(err)
	}
	for name, class := range map[string]string{
		"negative fallback":  `,"fallback_sum_ns":-1,"fallback_count":1`,
		"negative error sum": `,"err_sum_ns":-1,"err_count":1`,
	} {
		s, err := LoadStore(strings.NewReader(doc(class, `"count":1,"sum_ns":1`)))
		if err != nil {
			t.Errorf("%s: refused: %v", name, err)
			continue
		}
		for _, k := range []Key{{}, {AreaClass: 3, Texture: 2}} {
			if got, want := s.ForClass("brain").Estimate(k), plain.ForClass("brain").Estimate(k); got != want {
				t.Errorf("%s: Estimate(%v) = %v, want %v", name, k, got, want)
			}
		}
	}
}

// TestStoreMergeAndClone: merging combines per-key EWMAs weighted by their
// observation counts, and Clone shares nothing with its source.
func TestStoreMergeAndClone(t *testing.T) {
	a, b := NewStore(), NewStore()
	k := MakeKey(64*64, 1, 0, 32, 16)
	a.ForClass("brain").Observe(k, 100*time.Microsecond)
	a.ForClass("brain").Observe(k, 200*time.Microsecond) // EWMA 150µs, count 2
	b.ForClass("brain").Observe(k, 600*time.Microsecond) // EWMA 600µs, count 1
	b.ForClass("bone").Observe(k, 50*time.Microsecond)

	a.Merge(b)
	brain := a.ForClass("brain")
	if got := brain.observations(); got != 3 {
		t.Fatalf("merged observations %d, want 3", got)
	}
	// Count-weighted EWMA mean (2·150+600)/3 = 300µs.
	if got := brain.Estimate(k); got != 300*time.Microsecond {
		t.Fatalf("merged estimate %v, want 300µs", got)
	}
	if got := a.ForClass("bone").observations(); got != 1 {
		t.Fatalf("merged bone observations %d, want 1", got)
	}

	clone := a.Clone()
	clone.ForClass("brain").Observe(k, time.Second)
	if brain.observations() != 3 || brain.Estimate(k) != 300*time.Microsecond {
		t.Fatal("mutating the clone changed the source store")
	}
	if clone.ForClass("brain").observations() != 4 {
		t.Fatal("clone did not take the copy")
	}
	// Self-merge is a no-op, not a doubling.
	a.Merge(a)
	if brain.observations() != 3 {
		t.Fatal("self-merge doubled the store")
	}
}

// TestStoreMergeClass: the targeted merge takes exactly one class — the
// shard-removal handoff path — leaving the destination's other classes
// and the donor untouched.
func TestStoreMergeClass(t *testing.T) {
	donor, dst := NewStore(), NewStore()
	k := MakeKey(64*64, 1, 0, 32, 16)
	donor.ForClass("brain").Observe(k, 100*time.Microsecond)
	donor.ForClass("brain").Observe(k, 200*time.Microsecond)
	donor.ForClass("bone").Observe(k, 50*time.Microsecond)
	dst.ForClass("chest").Observe(k, 80*time.Microsecond)

	dst.MergeClass(donor, "brain")
	if got := dst.ForClass("brain").observations(); got != 2 {
		t.Fatalf("brain observations %d after MergeClass, want 2", got)
	}
	if got := dst.ForClass("brain").Estimate(k); got != 150*time.Microsecond {
		t.Fatalf("brain estimate %v after MergeClass, want the donor's 150µs EWMA", got)
	}
	// Only the named class moved.
	for _, c := range dst.Classes() {
		if c == "bone" {
			t.Fatal("MergeClass dragged an unrequested class along")
		}
	}
	// Unknown classes and self-merges are no-ops.
	dst.MergeClass(donor, "no-such-class")
	for _, c := range dst.Classes() {
		if c == "no-such-class" {
			t.Fatal("MergeClass invented a class")
		}
	}
	dst.MergeClass(dst, "brain")
	if got := dst.ForClass("brain").observations(); got != 2 {
		t.Fatal("self MergeClass doubled the class")
	}
	// The donor is untouched.
	if donor.ForClass("brain").observations() != 2 || donor.ForClass("bone").observations() != 1 {
		t.Fatal("MergeClass mutated the donor")
	}
}
