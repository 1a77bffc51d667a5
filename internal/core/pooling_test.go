package core

import (
	"testing"

	"repro/internal/codec"
)

// TestPooledEncodeBitIdentical is the bit-identity contract of the
// pooled encode hot path: recycled buffers must never leak stale bytes
// into a bitstream. A pristine sequential run is the reference; the
// second run serves the same four sessions concurrently with every pool
// deliberately pre-poisoned — BitWriters parked mid-byte full of
// garbage, tileCoder scratch and stats set to sentinel values, sum tables
// built over another plane — and re-poisoned after every round, so each
// Get hands the encoder a dirty object. Two sessions are baseline, whose
// TZ searches read the sum tables. Any read of recycled state that is not
// first overwritten shows up as a digest or per-frame mismatch. Run under
// -race this also proves the pools are safe across the concurrent serving
// goroutines.
func TestPooledEncodeBitIdentical(t *testing.T) {
	modes := []Mode{ModeProposed, ModeBaseline, ModeProposed, ModeBaseline}
	ref := fourUserServer(t, true, modes...)
	refOuts, err := ref.ServeAll(10)
	if err != nil {
		t.Fatal(err)
	}

	codec.PoisonPools()
	dirty := fourUserServer(t, false, modes...)
	dirty.cfg.OnRound = func(*GOPOutcome) { codec.PoisonPools() }
	dirtyOuts, err := dirty.ServeAll(10)
	if err != nil {
		t.Fatal(err)
	}

	if len(refOuts) != len(dirtyOuts) {
		t.Fatalf("rounds: pristine %d, poisoned %d", len(refOuts), len(dirtyOuts))
	}
	for round := range refOuts {
		ro, do := refOuts[round], dirtyOuts[round]
		if !equalInts(ro.AdmittedUsers, do.AdmittedUsers) {
			t.Fatalf("round %d admitted: pristine %v, poisoned %v", round, ro.AdmittedUsers, do.AdmittedUsers)
		}
		for _, id := range ro.AdmittedUsers {
			rg, dg := ro.GOPs[id], do.GOPs[id]
			if rg == nil || dg == nil {
				t.Fatalf("round %d user %d missing GOP report", round, id)
			}
			if rg.Digest != dg.Digest {
				t.Fatalf("round %d user %d: bitstream digest %x (pristine) != %x (poisoned pools) — recycled buffer leaked into the bitstream",
					round, id, rg.Digest, dg.Digest)
			}
			if len(rg.Frames) != len(dg.Frames) {
				t.Fatalf("round %d user %d: frame counts differ", round, id)
			}
			for i := range rg.Frames {
				rf, df := rg.Frames[i], dg.Frames[i]
				if rf.Bits != df.Bits || rf.PSNR != df.PSNR || rf.Digest != df.Digest {
					t.Fatalf("round %d user %d frame %d: pristine (%d bits, %.3f dB, %x) != poisoned (%d bits, %.3f dB, %x)",
						round, id, i, rf.Bits, rf.PSNR, rf.Digest, df.Bits, df.PSNR, df.Digest)
				}
			}
		}
	}
	for i, rec := range dirty.records {
		if !rec.sess.Finished() {
			t.Fatalf("poisoned-run session %d not finished", i)
		}
	}
}
