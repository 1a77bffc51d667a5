package core

import (
	"testing"

	"repro/internal/medgen"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/video"
)

// countingAllocator wraps Algorithm 2 and counts how often the server
// actually invokes it — the probe for allocator memoization: a memo hit
// reuses the cached sched.Result without calling here.
func countingAllocator(calls *int) AllocatorFunc {
	return func(in sched.Input) (*sched.Result, error) {
		*calls++
		return sched.AllocateContentAware(in)
	}
}

// frozenSource serves the same frame for the whole video, so content
// analysis classifies every GOP identically and the workload keys — and
// with them the allocator fingerprint — genuinely repeat round to round.
// (Even a medgen Still source drifts enough to flip a tile's motion
// class between GOPs, which correctly invalidates the memo.)
type frozenSource struct{ FrameSource }

func (f frozenSource) Frame(int) *video.Frame { return f.FrameSource.Frame(0) }

func steadySource(t *testing.T, class medgen.Class, frames int) FrameSource {
	t.Helper()
	return frozenSource{testSource(t, class, medgen.Still, frames)}
}

// steadyConfig makes every GOP structurally identical (I+PPP): with the
// test default IntraPeriod of two GOPs, I-led and P-led GOPs leave
// different reconstructions behind, and the analysis reference — hence a
// tile's motion class — can alternate round to round.
func steadyConfig() SessionConfig {
	cfg := testSessionConfig(ModeBaseline)
	cfg.Codec.IntraPeriod = cfg.Codec.GOPSize
	return cfg
}

// TestAllocatorMemoization pins the memoization contract from both
// sides. A steady roster — same sessions, same per-tile workload keys,
// same ladder state — must reuse the previous round's allocation
// without re-running the allocator. And every roster change the
// fingerprint covers (join, depart, QP rung, degrade, rate-halve,
// migration import) must produce a fresh sched.Result: stale sharing
// across any of these would hand cores to sessions that no longer exist
// or misprice ones that changed service level.
//
// Baseline-mode frozen sources keep the per-GOP workload keys constant
// (uniform grid, fixed QP, identical content every GOP), so the steady
// rounds genuinely repeat the fingerprint.
func TestAllocatorMemoization(t *testing.T) {
	calls := 0
	srv, err := NewServer(ServerConfig{
		Platform:  mpsoc.XeonE5_2667V4(),
		FPS:       24,
		Allocator: countingAllocator(&calls),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(steadySource(t, medgen.Brain, 64), steadyConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(steadySource(t, medgen.Chest, 64), steadyConfig()); err != nil {
		t.Fatal(err)
	}
	round := func() {
		t.Helper()
		if _, err := srv.ServeGOP(); err != nil {
			t.Fatal(err)
		}
	}
	// steady asserts a memo hit: the round must not invoke the allocator.
	steady := func(what string) {
		t.Helper()
		before := calls
		round()
		if calls != before {
			t.Fatalf("%s: steady roster re-ran the allocator (%d → %d calls)", what, before, calls)
		}
	}
	// fresh asserts an invalidation: the round must re-run the allocator.
	fresh := func(what string) {
		t.Helper()
		before := calls
		round()
		if calls != before+1 {
			t.Fatalf("%s: want a fresh allocator run (%d calls), got %d", what, before+1, calls)
		}
	}

	fresh("first round") // nothing cached yet
	// The first GOP is analysed without a reference frame, so its keys
	// bucket differently from every later GOP's: one more fresh solve.
	fresh("second round")
	steady("third round")  // identical roster → memo hit
	steady("fourth round") // and it stays hit, not a one-shot

	// Join: a submitted session changes the competitor set.
	if _, err := srv.Submit(steadySource(t, medgen.Bone, 8), steadyConfig()); err != nil {
		t.Fatal(err)
	}
	fresh("join")
	round() // the joiner's second GOP re-keys (its first had no reference)

	// Depart: the 8-frame joiner finished last round; the roster shrinks.
	if !srv.Sessions()[2].Finished() {
		t.Fatalf("joiner not finished at frame %d — test scenario drifted", srv.Sessions()[2].NextFrame())
	}
	fresh("depart")
	steady("post-depart settle")

	// QP rung: a service-level QP offset must invalidate even when the
	// bucketed key would not move.
	srv.Sessions()[0].SetQPOffset(4)
	fresh("QP rung")

	// Degrade: the uniform-tiling rung flips the degraded flag.
	if err := srv.Sessions()[0].Degrade(); err != nil {
		t.Fatal(err)
	}
	fresh("degrade")

	// Rate-halve: the session sits out alternating rounds, so both the
	// flag flip and the roster alternation invalidate.
	srv.Sessions()[1].HalveRate()
	fresh("rate-halve")

	// Migration import: a session adopted from another shard joins the
	// roster mid-service.
	donor, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.Submit(steadySource(t, medgen.SpinalCord, 8), steadyConfig()); err != nil {
		t.Fatal(err)
	}
	snaps, err := donor.ExportSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("exported %d sessions, want 1", len(snaps))
	}
	if _, err := srv.Import(snaps[0]); err != nil {
		t.Fatal(err)
	}
	fresh("migration import")
}
