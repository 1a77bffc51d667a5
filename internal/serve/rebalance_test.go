package serve

import (
	"context"
	"fmt"
	"testing"
)

// hotFleet builds an n-shard fleet with rebalancing configured and
// sessions of one class all homed on the same shard — the skew a hot
// shard is made of. Returns the fleet, the hot class, and its home.
func hotFleet(t *testing.T, shards int, cfg RebalanceConfig, sink Sink) (*Fleet, string, int) {
	t.Helper()
	opts := []Option{WithShards(shards), WithRebalance(cfg)}
	if sink != nil {
		opts = append(opts, WithSink(sink))
	}
	f, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	class := classHomedOn(t, f, 0)
	return f, class, 0
}

// TestRebalanceShedsHotShardBitIdentical is the acceptance scenario: a
// fixed-size fleet whose class routing piled every session on shard 0
// sheds the newest sessions to the idle peer at a GOP boundary — zero
// frames or GOP reports lost, and each rebalanced session's stitched
// digest chain equal to the same session served without rebalancing.
func TestRebalanceShedsHotShardBitIdentical(t *testing.T) {
	const frames = 24 // 6 GOPs of 4
	sink := &recordingSink{}
	f, class, home := hotFleet(t, 2, RebalanceConfig{Factor: 1.2, Windows: 1}, sink)
	const sessions = 4
	for i := 0; i < sessions; i++ {
		p, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i+1), frames), Config: testSessionConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if p.Shard != home {
			t.Fatalf("session %d landed on shard %d, want the hot home %d", i, p.Shard, home)
		}
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Nothing lost, nobody failed, and the fleet really rebalanced.
	if rep.Submitted != sessions || rep.Completed != sessions || rep.Failed != 0 || rep.Rejected != 0 {
		t.Fatalf("report %+v, want all %d unique sessions completed", rep, sessions)
	}
	if rep.FramesEncoded != sessions*frames || rep.GOPReports != sessions*frames/4 {
		t.Fatalf("frames/GOPs %d/%d, want %d/%d — rebalancing lost work",
			rep.FramesEncoded, rep.GOPReports, sessions*frames, sessions*frames/4)
	}
	if rep.Rebalanced == 0 {
		t.Fatal("hot shard never shed a session")
	}
	if rep.Rebalanced != rep.Migrated {
		t.Fatalf("%d migration hops but %d rebalances — no resize ran, they must match",
			rep.Migrated, rep.Rebalanced)
	}

	sink.mu.Lock()
	rebalances := append([]MigrationEvent(nil), sink.rebalances...)
	added, removed := len(sink.added), len(sink.removed)
	sink.mu.Unlock()
	if added != 0 || removed != 0 {
		t.Fatalf("rebalancing changed the fleet size: %d added, %d removed", added, removed)
	}
	if len(rebalances) != rep.Rebalanced {
		t.Fatalf("sink saw %d rebalances, report says %d", len(rebalances), rep.Rebalanced)
	}
	for _, e := range rebalances {
		if e.FromShard != home || e.ToShard == home || e.Class != class {
			t.Fatalf("rebalance event %+v inconsistent with the hot shard", e)
		}
		if e.Frame%4 != 0 || e.Frame == 0 || e.Frame >= frames {
			t.Fatalf("rebalanced at frame %d — not a mid-stream GOP boundary", e.Frame)
		}
	}

	// Bit-identity per rebalanced session: its digest chain across both
	// shards equals the same source served solo. The submission seed is
	// recoverable from the donor-side session id (submitted in order).
	for _, e := range rebalances {
		got, gotFrames := stitchDigests(sink, e.FromShard, e.FromSession)
		want := soloDigests(t, class, int64(e.FromSession+1), frames)
		if gotFrames != frames {
			t.Fatalf("rebalanced session %d: %d frames observed, want %d", e.FromSession, gotFrames, frames)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("rebalanced session %d digest chain differs from the unrebalanced run:\n got %v\nwant %v",
				e.FromSession, got, want)
		}
	}
}

// TestRebalanceQuietOnBalancedFleet: a fleet with even load never
// rebalances — and neither does a skewed one whose hysteresis window has
// not elapsed.
func TestRebalanceQuietOnBalancedFleet(t *testing.T) {
	sink := &recordingSink{}
	f, err := New(WithShards(2), WithRebalance(RebalanceConfig{Factor: 1.2, Windows: 1}), WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	classes := classesPerShard(t, f)
	for i, class := range classes {
		if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i+1), 8), Config: testSessionConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 || rep.Rebalanced != 0 {
		t.Fatalf("report %+v, want 2 completed with zero rebalances", rep)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.rebalances) != 0 {
		t.Fatalf("balanced fleet emitted rebalance events: %+v", sink.rebalances)
	}
}

// TestRebalanceHysteresisHoldsWithinWindow: a hot shard must stay put
// until it has been hot for Windows consecutive rounds — a skew shorter
// than the window never triggers a shed.
func TestRebalanceHysteresisHoldsWithinWindow(t *testing.T) {
	sink := &recordingSink{}
	f, class, home := hotFleet(t, 2, RebalanceConfig{Factor: 1.2, Windows: 100}, sink)
	for i := 0; i < 3; i++ {
		p, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i+1), 8), Config: testSessionConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if p.Shard != home {
			t.Fatalf("session %d landed on shard %d, want %d", i, p.Shard, home)
		}
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 3 || rep.Failed != 0 {
		t.Fatalf("report %+v, want 3 completed", rep)
	}
	if rep.Rebalanced != 0 {
		t.Fatalf("%d rebalances before the hysteresis window elapsed", rep.Rebalanced)
	}
}

// TestRebalanceConfigValidation: a factor at or under 1 (every shard is
// always "hot") and negative knobs are refused.
func TestRebalanceConfigValidation(t *testing.T) {
	if _, err := New(WithRebalance(RebalanceConfig{Factor: 1.0})); err == nil {
		t.Fatal("factor 1.0 accepted")
	}
	if _, err := New(WithRebalance(RebalanceConfig{Factor: 2, Windows: -1})); err == nil {
		t.Fatal("negative windows accepted")
	}
	// Defaults apply on the zero value.
	f, err := New(WithShards(2), WithRebalance(RebalanceConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg := f.opts.rebalance; cfg.Factor != 1.5 || cfg.Windows != 2 {
		t.Fatalf("defaults %+v, want factor 1.5 windows 2", cfg)
	}
}
