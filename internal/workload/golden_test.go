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
// persisted facet: per-key observation aggregates, with and without
// calibration EWMA state, in more than one class.
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
	brain.Calibrate(Key{AreaClass: 0, Texture: 1, Motion: 0, QPBucket: 2, SearchLevel: 1},
		4*time.Millisecond, 0.3)

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

// TestStoreLegacyDocument: a version-1 document written before the store
// dropped its histogram bins and class aggregates (store_v1_legacy.json,
// the same goldenStore) still loads, and re-saves to today's golden byte
// for byte — the fields it no longer keeps are ignored, not refused.
func TestStoreLegacyDocument(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "store_v1_legacy.json"))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := loaded.Save(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "store_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("legacy document re-saved to %d bytes, want store_v1.json's %d", got.Len(), len(want))
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
