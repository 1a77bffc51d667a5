package workload

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenStore builds a deterministic two-class store exercising every
// persisted facet: per-key EWMAs over one and several observations, in
// more than one class.
func goldenStore() *Store {
	st := NewStore()
	brain := st.ForClass("brain")
	for i, d := range []time.Duration{
		2 * time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond, 8 * time.Millisecond,
	} {
		k := Key{AreaClass: i % 3, Texture: 1, Motion: i % 2, QPBucket: 2, SearchLevel: 1}
		brain.Observe(k, d)
		brain.Observe(k, d+time.Millisecond)
	}
	brain.Observe(Key{AreaClass: 0, Texture: 1, Motion: 0, QPBucket: 2, SearchLevel: 1}, 4*time.Millisecond)

	chest := st.ForClass("chest-4k")
	chest.Observe(Key{AreaClass: 2, Texture: 3, Motion: 1, QPBucket: 4, SearchLevel: 2}, 12*time.Millisecond)
	chest.Observe(Key{AreaClass: 1, Texture: 0, Motion: 0, QPBucket: 0, SearchLevel: 0}, 700*time.Microsecond)
	return st
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden file (%d bytes, want %d).\n"+
			"The store's Save format is a wire format (agents ship it in heartbeats): "+
			"if the change is intentional, regenerate with -update, and bump persistVersion "+
			"only when a document the previous Save wrote no longer loads.",
			name, len(got), len(want))
	}
}

// TestStoreGolden pins the LUT store's persisted encoding byte-for-byte:
// Save is deterministic, and the golden bytes reload into a store that
// re-saves identically (canonical round trip). A field added to the
// entry or LUT without wire handling shows up here as a drift.
func TestStoreGolden(t *testing.T) {
	var got bytes.Buffer
	if err := goldenStore().Save(&got); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "store_v1.json", got.Bytes())

	// Byte-determinism: an independent rebuild encodes identically.
	var again bytes.Buffer
	if err := goldenStore().Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), again.Bytes()) {
		t.Fatal("store encoding is not deterministic")
	}

	// Canonical round trip: golden → LoadStore → Save → golden.
	loaded, err := LoadStore(bytes.NewReader(got.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := loaded.Save(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), back.Bytes()) {
		t.Fatal("load → re-save did not reproduce the golden bytes")
	}
}

// TestStoreLegacyDocument: version-1 documents of older formats still load
// with the estimates they were written with. store_v1_legacy.json carries
// histogram bins and class aggregates, store_v1_mean.json per-key
// lifetime-mean aggregates (count, sum_ns) beside the EWMA of the keys
// that had one; both hold the same store. A key with only the aggregates
// starts its EWMA at their mean, with their count; a present EWMA wins.
func TestStoreLegacyDocument(t *testing.T) {
	type want struct {
		n   uint64
		est time.Duration
	}
	k := func(area, tex, mot, qp, level int) Key {
		return Key{AreaClass: area, Texture: tex, Motion: mot, QPBucket: qp, SearchLevel: level}
	}
	wants := map[string]map[Key]want{
		"brain": {
			k(0, 1, 0, 2, 1): {1, 4 * time.Millisecond}, // the EWMA, not the 2.5ms mean
			k(0, 1, 1, 2, 1): {2, 8500 * time.Microsecond},
			k(1, 1, 1, 2, 1): {2, 3500 * time.Microsecond},
			k(2, 1, 0, 2, 1): {2, 5500 * time.Microsecond},
		},
		"chest-4k": {
			k(1, 0, 0, 0, 0): {1, 700 * time.Microsecond},
			k(2, 3, 1, 4, 2): {1, 12 * time.Millisecond},
		},
	}
	for _, name := range []string{"store_v1_legacy.json", "store_v1_mean.json"} {
		doc, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		s, err := LoadStore(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for class, keys := range wants {
			l := s.ForClass(class)
			if got := len(l.Keys()); got != len(keys) {
				t.Fatalf("%s %s: %d keys, want %d", name, class, got, len(keys))
			}
			for key, w := range keys {
				if h := l.m[key]; h == nil || h.n != w.n || l.Estimate(key) != w.est {
					t.Errorf("%s %s %v: entry %+v, want n %d and estimate %v", name, class, key, h, w.n, w.est)
				}
			}
		}
	}
}

// TestStoreVersionPinned: bumping the persist version is a conscious act
// that must come with a fresh golden file.
func TestStoreVersionPinned(t *testing.T) {
	if persistVersion != 1 {
		t.Fatalf("persistVersion = %d: add a store_v%d.json golden and update this pin",
			persistVersion, persistVersion)
	}
}
