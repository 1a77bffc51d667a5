package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/medgen"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/video"
	"repro/internal/workload"
)

// testGens holds one generator per study the package's tests play, so
// every session, rerun and routing label of a study shares its frames.
var testGens sync.Map // medgen.Config → *medgen.Generator

// testGenerator returns the package's generator for cfg.
func testGenerator(t testing.TB, cfg medgen.Config) *medgen.Generator {
	t.Helper()
	g, ok := testGens.Load(cfg)
	if !ok {
		fresh, err := medgen.NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, _ = testGens.LoadOrStore(cfg, fresh)
	}
	return g.(*medgen.Generator)
}

// labelled plays a shared generator under an arbitrary workload class.
type labelled struct {
	*medgen.Generator
	class string
}

func (l labelled) Class() string { return l.class }

// testSource plays a deterministic synthetic 256×192 study under an
// arbitrary workload-class name (the routing key).
func testSource(t testing.TB, class string, seed int64, frames int) core.FrameSource {
	t.Helper()
	return studySource(t, class, seed, frames, 256, 192)
}

// studySource is testSource at any geometry (640×480 is 4× its area).
func studySource(t testing.TB, class string, seed int64, frames, width, height int) core.FrameSource {
	t.Helper()
	cfg := medgen.Default()
	cfg.Width, cfg.Height = width, height
	cfg.Class = medgen.Class(int(seed) % medgen.NumClasses)
	cfg.Motion = []medgen.MotionKind{medgen.Rotate, medgen.Pan, medgen.Sweep, medgen.Still}[int(seed)%4]
	cfg.Frames = frames
	cfg.Seed = seed
	return labelled{testGenerator(t, cfg), class}
}

// testSessionConfig shrinks geometry-dependent parameters for 256×192.
func testSessionConfig() core.SessionConfig {
	cfg := core.DefaultSessionConfig()
	cfg.Codec.GOPSize = 4
	cfg.Codec.IntraPeriod = 8
	cfg.Retile.MinTileW, cfg.Retile.MinTileH = 48, 48
	return cfg
}

// classesPerShard finds one class name homed on every shard of an
// n-shard fleet.
func classesPerShard(t *testing.T, f *Fleet) []string {
	t.Helper()
	out := make([]string, f.liveShards())
	found := 0
	for i := 0; found < f.liveShards() && i < 10000; i++ {
		class := fmt.Sprintf("class-%d", i)
		home := f.HomeShard(class)
		if out[home] == "" {
			out[home] = class
			found++
		}
	}
	if found != f.liveShards() {
		t.Fatalf("could not find a class for every shard: %v", out)
	}
	return out
}

// TestFleetRoutesByClassAndCompletes: sessions land on their class's home
// shard, every shard serves, and the fleet drains cleanly.
func TestFleetRoutesByClassAndCompletes(t *testing.T) {
	f, err := New(WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	classes := classesPerShard(t, f)
	perShard := make([]int, 3)
	for i, class := range classes {
		for j := 0; j < 2; j++ {
			p, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i*10+j+1), 8), Config: testSessionConfig()})
			if err != nil {
				t.Fatal(err)
			}
			if p.Shard != i {
				t.Fatalf("class %q routed to shard %d, home is %d", class, p.Shard, i)
			}
			perShard[p.Shard]++
		}
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 6 || rep.Completed != 6 || rep.Failed != 0 || rep.Rejected != 0 {
		t.Fatalf("fleet report %+v, want 6 completed", rep)
	}
	// Zero lost GOP reports: 6 sessions × 8 frames in GOPs of 4.
	if rep.GOPReports != 6*2 || rep.FramesEncoded != 6*8 {
		t.Fatalf("GOP reports %d frames %d, want 12 and 48", rep.GOPReports, rep.FramesEncoded)
	}
	for i, sr := range rep.Shards {
		if sr.Err != nil || sr.Restarts != 0 {
			t.Fatalf("shard %d: err %v restarts %d", i, sr.Err, sr.Restarts)
		}
		if len(sr.Report.Completed) != perShard[i] {
			t.Fatalf("shard %d completed %v, want %d sessions", i, sr.Report.Completed, perShard[i])
		}
	}
}

// TestLeastLoadedFallback: a saturated home shard routes the overflow to
// the least-loaded shard instead of queueing behind its own class.
func TestLeastLoadedFallback(t *testing.T) {
	f, err := New(WithShards(3), WithShardCapacity(1))
	if err != nil {
		t.Fatal(err)
	}
	classes := classesPerShard(t, f)
	class := classes[0]
	// Pre-load shard 2 so the fallback has a load gradient to follow.
	if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, classes[2], 77, 8), Config: testSessionConfig()}); err != nil {
		t.Fatal(err)
	}
	first, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, 1, 8), Config: testSessionConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if first.Shard != 0 {
		t.Fatalf("first session of class %q on shard %d, want home 0", class, first.Shard)
	}
	// Home shard 0 is at capacity; shard 1 is empty, shard 2 holds one.
	second, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, 2, 8), Config: testSessionConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if second.Shard != 1 {
		t.Fatalf("overflow session on shard %d, want least-loaded 1", second.Shard)
	}
	f.Close()
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFleetSubmitRefusedEverywhere: a closed fleet refuses submissions
// with the shard's error surfaced.
func TestFleetSubmitRefusedEverywhere(t *testing.T) {
	f, err := New(WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, "any", 1, 4), Config: testSessionConfig()}); err == nil {
		t.Fatal("Submit succeeded on a closed fleet")
	}
}

// recordingSink captures every event for assertions. The On* path is
// serialized by the fleet; the mutex covers test-goroutine reads.
type recordingSink struct {
	mu         sync.Mutex
	gops       []GOPEvent
	states     []SessionEvent
	placements []PlacementEvent
	rounds     []RoundEvent
	added      []ShardEvent
	removed    []ShardEvent
	migrations []MigrationEvent
	rebalances []MigrationEvent
}

func (r *recordingSink) OnGOP(e GOPEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gops = append(r.gops, e)
}

func (r *recordingSink) OnSessionStateChange(e SessionEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.states = append(r.states, e)
}

func (r *recordingSink) OnSessionPlaced(e PlacementEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.placements = append(r.placements, e)
}

func (r *recordingSink) OnRoundMetrics(e RoundEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rounds = append(r.rounds, e)
}

func (r *recordingSink) OnShardAdded(e ShardEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.added = append(r.added, e)
}

func (r *recordingSink) OnShardRemoved(e ShardEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.removed = append(r.removed, e)
}

func (r *recordingSink) OnSessionMigrated(e MigrationEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.migrations = append(r.migrations, e)
}

func (r *recordingSink) OnSessionRebalanced(e MigrationEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rebalances = append(r.rebalances, e)
}

// crashFleet builds one shard per entry of cores, all served by the
// crash-15 allocator: it fails with boom on every 15-core platform and
// allocates content-aware elsewhere — one policy for the fleet, and the
// 15-core shards are the ones it always kills.
func crashFleet(t *testing.T, boom error, cores []int, opts ...Option) *Fleet {
	t.Helper()
	platforms := make([]*mpsoc.Platform, len(cores))
	for i, n := range cores {
		platforms[i] = heteroPlatform(n)
	}
	reg := sched.NewRegistry()
	if err := reg.Register("crash-15", "fails on the 15-core platform", func(in sched.Input) (*sched.Result, error) {
		if in.Platform.Cores == 15 {
			return nil, boom
		}
		return sched.AllocateContentAware(in)
	}); err != nil {
		t.Fatal(err)
	}
	f, err := New(append([]Option{WithPlatforms(platforms...), WithRegistry(reg), WithAllocator("crash-15")}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestShardCrashIsolation is the kill-one-shard acceptance criterion: a
// shard whose serving loop dies for good loses nothing. The supervisor
// books its restarts and the cause, and its sessions leave the way a
// resize victim's do — each finishes on a survivor with the digest chain
// of an unmigrated run, and no session fails.
func TestShardCrashIsolation(t *testing.T) {
	boom := errors.New("allocator exploded")
	sink := &recordingSink{}
	f := crashFleet(t, boom, []int{32, 15, 32}, WithSink(sink))
	type submitted struct {
		class          string
		seed           int64
		shard, session int
	}
	var subs []submitted
	for i, class := range classesPerShard(t, f) {
		for j := 0; j < 2; j++ {
			seed := int64(i*10 + j + 1)
			p, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, seed, 8), Config: testSessionConfig()})
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, submitted{class, seed, p.Shard, p.Session.ID})
		}
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// The dead shard: restarted maxRestarts times, then gave up, and every
	// session it held migrated away.
	dead := rep.Shards[1]
	if dead.Err == nil || !errors.Is(dead.Err, boom) {
		t.Fatalf("dead shard error %v, want the allocator failure", dead.Err)
	}
	if dead.Restarts != maxRestarts {
		t.Fatalf("dead shard restarted %d times before the give-up, want %d", dead.Restarts, maxRestarts)
	}
	if len(dead.Report.Migrated) != 2 || len(dead.Report.Failed) != 0 {
		t.Fatalf("dead shard migrated %v failed %v, want both sessions migrated", dead.Report.Migrated, dead.Report.Failed)
	}
	// Nothing lost: every session completed, zero lost frames and GOP
	// reports (6 sessions × 8 frames in GOPs of 4).
	if rep.Submitted != 6 || rep.Completed != 6 || rep.Failed != 0 || rep.FramesEncoded != 48 || rep.GOPReports != 12 {
		t.Fatalf("want 6 sessions completed, 48 frames, 12 GOP reports:\n%s", describe(rep))
	}

	sink.mu.Lock()
	for _, e := range sink.states {
		if e.State == core.StateFailed {
			sink.mu.Unlock()
			t.Fatalf("failure event %+v: a given-up shard's sessions must re-home", e)
		}
	}
	gops := map[int]int{}
	for _, e := range sink.gops {
		gops[e.Shard]++
	}
	hops := make(map[int]MigrationEvent)
	adopted := map[int]int{}
	for _, m := range sink.migrations {
		if m.FromShard == 1 {
			hops[m.FromSession] = m
			adopted[m.ToShard]++
		}
	}
	nhops := len(sink.migrations)
	sink.mu.Unlock()
	if len(hops) != 2 || nhops != 2 {
		t.Fatalf("%d migration events, %d of them off shard 1, want one per session of shard 1", nhops, len(hops))
	}
	if gops[1] != 0 {
		t.Fatalf("%d GOP events from the dead shard: its rounds fail before any encode", gops[1])
	}

	// The survivors are isolated from the give-up: no error, no restart,
	// and every session they hold — their own and the ones they adopted —
	// completed with both GOPs booked and streamed.
	for _, si := range []int{0, 2} {
		sr := rep.Shards[si]
		if sr.Err != nil || sr.Restarts != 0 {
			t.Fatalf("surviving shard %d: error %v after %d restarts", si, sr.Err, sr.Restarts)
		}
		held := adopted[si]
		for _, s := range subs {
			if s.shard == si {
				held++
			}
		}
		if len(sr.Report.Completed) != held || len(sr.Report.Failed) != 0 {
			t.Fatalf("surviving shard %d completed %v failed %v, want %d sessions", si, sr.Report.Completed, sr.Report.Failed, held)
		}
		if sr.Report.GOPReports != 2*held || gops[si] != 2*held {
			t.Fatalf("surviving shard %d: %d GOP reports, %d sink GOP events, want %d", si, sr.Report.GOPReports, gops[si], 2*held)
		}
	}

	// Every session of shard 1 completed on a survivor, bit-identically.
	for _, s := range subs {
		if s.shard != 1 {
			continue
		}
		m, ok := hops[s.session]
		if !ok || (m.ToShard != 0 && m.ToShard != 2) {
			t.Fatalf("session %d of shard 1: migration %+v, want a hop to shard 0 or 2", s.session, m)
		}
		if done := rep.Shards[m.ToShard].Report.Completed; !slices.Contains(done, m.ToSession) {
			t.Fatalf("session %d of shard 1 is session %d on shard %d, which completed only %v", s.session, m.ToSession, m.ToShard, done)
		}
		got, frames := stitchDigests(sink, 1, s.session)
		want := soloDigests(t, testSource(t, s.class, s.seed, 8))
		if frames != 8 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("session %d of shard 1: %d frames, digests %v, want 8 and the solo run's %v", s.session, frames, got, want)
		}
	}
}

// TestShardGiveUpLeavesRing: a given-up shard leaves the consistent-hash
// ring the way a resize victim does, so each of its classes gets a live
// home — for new submissions, and for MergeLUTs, the dist import path's
// warm handoff, which must not fold the class into a dead shard's store.
func TestShardGiveUpLeavesRing(t *testing.T) {
	f := crashFleet(t, errors.New("allocator exploded"), []int{32, 15, 32})
	classes := classesPerShard(t, f)
	for i, class := range classes {
		if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i+1), 4), Config: testSessionConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards[1].Err == nil {
		t.Fatalf("shard 1 was not given up:\n%s", describe(rep))
	}
	home := f.HomeShard(classes[1])
	if home != 0 && home != 2 {
		t.Fatalf("class %q homes on shard %d after shard 1 gave up, want a live shard", classes[1], home)
	}
	lut := f.shardAt(home).srv.Store().ForClass(classes[1])
	// No encode learns workload.Key{} (its search window is 1).
	before := len(lut.Keys())
	remote := workload.NewStore()
	remote.ForClass(classes[1]).Observe(workload.Key{}, time.Millisecond)
	f.MergeLUTs(remote)
	if got := len(lut.Keys()); got != before+1 {
		t.Fatalf("MergeLUTs left live home shard %d at %d keys of %q, want %d", home, got, classes[1], before+1)
	}
}

// TestShardGiveUpEveryShard: when every shard gives up there is nowhere
// left to re-home to, so the last give-up dead-letters every session with
// its cause, and Run reports the fleet failed.
func TestShardGiveUpEveryShard(t *testing.T) {
	boom := errors.New("allocator exploded")
	sink := &recordingSink{}
	f := crashFleet(t, boom, []int{15, 15, 15}, WithSink(sink))
	for i, class := range classesPerShard(t, f) {
		for j := 0; j < 2; j++ {
			if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i*10+j+1), 4), Config: testSessionConfig()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.Close()
	_, err := f.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "all 3 serving shards failed") || !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want every shard failed on the allocator", err)
	}
	if rep := f.Report(); rep.Submitted != 6 || rep.Failed != 6 {
		t.Fatalf("want all 6 sessions failed:\n%s", describe(rep))
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	failures := 0
	for _, e := range sink.states {
		if e.State == core.StateFailed {
			failures++
			if !errors.Is(e.Err, boom) {
				t.Fatalf("failure event without the cause: %+v", e)
			}
		}
	}
	if failures != 6 {
		t.Fatalf("%d failure events, want 6", failures)
	}
}

// TestShardGiveUpCascadeGuard: with the ladder off, a session whose core
// demand exceeds its whole platform takes its shard down ("no user
// admitted"). Re-homing it onto a shard no bigger would take that one
// down next, one shard after another, so it dead-letters instead: exactly
// one shard gives up, and every other session completes.
func TestShardGiveUpCascadeGuard(t *testing.T) {
	sink := &recordingSink{}
	f, err := New(WithShards(3), WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	classes := classesPerShard(t, f)
	// 256×192 at 40 µs per pixel warms, after its first GOP, to
	// ceil(49152 · 40 µs · 24) = 48 cores: more than any 32-core shard. The
	// coarse grid keeps the first GOP's LUT keys the ones the second
	// estimates from.
	heavyCfg := testSessionConfig()
	heavyCfg.Retile.MinTileW, heavyCfg.Retile.MinTileH = 84, 64
	heavyCfg.TimeModel = pixelCostModel(40000)
	heavy, err := f.SubmitWith(SubmitRequest{Source: testSource(t, classes[0], 1, 8), Config: heavyCfg})
	if err != nil {
		t.Fatal(err)
	}
	for i, class := range classes[1:] {
		if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i+2), 8), Config: testSessionConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range rep.Shards {
		if gaveUp := sr.Err != nil; gaveUp != (i == heavy.Shard) {
			t.Fatalf("shard %d error %v; want only the heavy session's shard %d given up:\n%s", i, sr.Err, heavy.Shard, describe(rep))
		}
	}
	if rep.Completed != 2 || rep.Failed != 1 || rep.Migrated != 0 {
		t.Fatalf("want the two light sessions completed, the heavy one failed in place:\n%s", describe(rep))
	}
	if errs := rep.Shards[heavy.Shard].Report.Errors; errs[heavy.Session.ID] == nil ||
		!strings.Contains(errs[heavy.Session.ID].Error(), "no user admitted") {
		t.Fatalf("heavy session's error %v, want the give-up's cause", errs)
	}
}

// TestShardGiveUpGuardFollowsLadder: the cascade guard is for the ladder
// off only. A 15-core shard gives up on an allocator fault holding one
// session whose demand (12 cores) exceeds the 8-core survivor. Ladder off,
// the guard dead-letters it with the cause; ladder on, nothing it holds
// can take a shard down, so it re-homes and the survivor serves it.
func TestShardGiveUpGuardFollowsLadder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ladder bool
	}{{"ladder off", false}, {"ladder on", true}} {
		t.Run(tc.name, func(t *testing.T) {
			boom := errors.New("allocator exploded")
			f := crashFleet(t, boom, []int{15, 8}, WithAdmission(core.AdmissionConfig{Enabled: tc.ladder}))
			cfg := testSessionConfig()
			cfg.DemandHint = 12
			p, err := f.SubmitWith(SubmitRequest{Source: testSource(t, classesPerShard(t, f)[0], 1, 8), Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
			rep, err := f.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			dead := rep.Shards[p.Shard]
			if p.Shard != 0 || !errors.Is(dead.Err, boom) {
				t.Fatalf("session placed on shard %d, shard 0 error %v; want it on the crash shard, given up", p.Shard, rep.Shards[0].Err)
			}
			if tc.ladder {
				if rep.Completed != 1 || rep.Migrated != 1 || rep.Failed != 0 {
					t.Fatalf("want the oversized session re-homed and completed:\n%s", describe(rep))
				}
			} else if rep.Failed != 1 || rep.Migrated != 0 || !errors.Is(dead.Report.Errors[p.Session.ID], boom) {
				t.Fatalf("want the oversized session dead-lettered with the cause:\n%s", describe(rep))
			}
		})
	}
}

// TestShardGiveUpWhileDraining pins the narrow side of the race below: a
// Resize marks the shard for draining after its last failed pass, before
// the give-up takes the fleet lock. The give-up books its cause and
// finishes the drain; the removed shard's error does not count against
// the one shard left serving, so Run succeeds.
func TestShardGiveUpWhileDraining(t *testing.T) {
	boom := errors.New("allocator exploded")
	f := crashFleet(t, boom, []int{32, 15})
	p, err := f.SubmitWith(SubmitRequest{Source: testSource(t, classesPerShard(t, f)[1], 1, 8), Config: testSessionConfig()})
	if err != nil {
		t.Fatal(err)
	}
	s := f.shardAt(p.Shard)
	f.mu.Lock()
	s.draining = true
	f.rebuildRingLocked()
	f.mu.Unlock()
	s.srv.Close()
	s.srv.Drain()
	f.giveUp(context.Background(), s, fmt.Errorf("gave up: %w", boom))
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p.Shard != 1 || !errors.Is(rep.Shards[1].Err, boom) {
		t.Fatalf("session on shard %d, shard 1 error %v; want the give-up's cause on the crash shard", p.Shard, rep.Shards[1].Err)
	}
	if rep.Completed != 1 || rep.Migrated != 1 || rep.FramesEncoded != 8 {
		t.Fatalf("want the session migrated and completed:\n%s", describe(rep))
	}
}

// TestShardGiveUpRacesResize: the crash-15 shard is the highest-indexed,
// the one a shrink retires, so its give-up and a Resize(n−1) race for it.
// Whichever wins, no session is stranded on a shard that left the fleet,
// none fails, and the event-derived report equals the ledger once the
// supervisor's own fields (which no event carries) are set aside.
func TestShardGiveUpRacesResize(t *testing.T) {
	ring := NewRingSink(256)
	boom := errors.New("allocator exploded")
	f := crashFleet(t, boom, []int{32, 32, 15}, WithSink(ring))
	for i, class := range classesPerShard(t, f) {
		for j := 0; j < 2; j++ {
			if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i*10+j+1), 8), Config: testSessionConfig()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := f.Run(context.Background())
		done <- result{rep, err}
	}()
	if err := f.resize(f.liveShards() - 1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	rep := res.rep
	if rep.Submitted != 6 || rep.Completed != 6 || rep.Failed != 0 || rep.FramesEncoded != 48 {
		t.Fatalf("want 6 sessions completed, 48 frames:\n%s", describe(rep))
	}
	for _, sr := range rep.Shards {
		r := sr.Report
		if settled := len(r.Completed) + len(r.Rejected) + len(r.Failed) + len(r.Migrated); settled != r.Submitted {
			t.Fatalf("shard %d settled %d of its %d sessions:\n%s", sr.Shard, settled, r.Submitted, describe(rep))
		}
	}
	// The crash shard either gave up — the give-up books its cause, even
	// when the Resize marked it draining first — or the drain stopped its
	// loop before the restart budget ran out.
	if crash := rep.Shards[2]; crash.Err != nil && (!errors.Is(crash.Err, boom) || crash.Restarts != maxRestarts) {
		t.Fatalf("crash shard error %v after %d restarts, want none or the allocator failure after %d", crash.Err, crash.Restarts, maxRestarts)
	}
	for i := range rep.Shards {
		rep.Shards[i].Restarts, rep.Shards[i].Err = 0, nil
	}
	if got := ring.Report(); !reflect.DeepEqual(got, rep) {
		t.Fatalf("event-derived view differs from the ledger:\n ring %s\nfleet %s", describe(got), describe(rep))
	}
}

// badFirstFrame is a source whose frame 0 cannot be read — the way a
// core.YUVFileSource reports an I/O error, by panicking.
type badFirstFrame struct{ core.FrameSource }

func (b badFirstFrame) Frame(n int) *video.Frame {
	if n == 0 {
		panic("read frame 0: input/output error")
	}
	return b.FrameSource.Frame(n)
}

// TestSubmitSurvivesPanickingFirstFrame: frame 0 is read on the
// submitter's goroutine (to size the session, and to price it under
// demand placement), so a source that panics there must come back as
// SubmitWith's error — and the fleet serves everyone else to completion.
func TestSubmitSurvivesPanickingFirstFrame(t *testing.T) {
	for name, opts := range map[string][]Option{
		"class placement":  {WithShards(2)},
		"demand placement": {WithShards(2), WithDemandPlacement(PlacementConfig{})},
	} {
		t.Run(name, func(t *testing.T) {
			f, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, "good", 1, 8), Config: testSessionConfig()}); err != nil {
				t.Fatal(err)
			}
			_, err = f.SubmitWith(SubmitRequest{Source: badFirstFrame{testSource(t, "bad", 2, 8)}, Config: testSessionConfig()})
			if err == nil || !strings.Contains(err.Error(), "input/output error") {
				t.Fatalf("SubmitWith of a source with an unreadable frame 0 returned %v, want the panic as an error", err)
			}
			if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, "good", 3, 8), Config: testSessionConfig()}); err != nil {
				t.Fatalf("the fleet refused a good session after the bad one: %v", err)
			}
			f.Close()
			rep, err := f.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Submitted != 2 || rep.Completed != 2 || rep.Failed != 0 || rep.FramesEncoded != 16 {
				t.Fatalf("report %+v, want the two good sessions submitted and completed", rep)
			}
		})
	}
}

// TestShardRestartRecovers: a transient serving-loop failure is healed in
// place — the shard restarts, its sessions survive and complete.
func TestShardRestartRecovers(t *testing.T) {
	reg := sched.NewRegistry()
	var failures atomic.Int32
	if err := reg.Register("flaky", "fails once", func(in sched.Input) (*sched.Result, error) {
		if failures.CompareAndSwap(0, 1) {
			return nil, errors.New("transient allocator failure")
		}
		return sched.AllocateContentAware(in)
	}); err != nil {
		t.Fatal(err)
	}
	f, err := New(WithShards(1), WithRegistry(reg), WithAllocator("flaky"))
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, "warm", int64(j+1), 8), Config: testSessionConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sr := rep.Shards[0]
	if sr.Restarts != 1 || sr.Restarts > maxRestarts || sr.Err != nil {
		t.Fatalf("restarts %d err %v, want one clean restart (budget %d)", sr.Restarts, sr.Err, maxRestarts)
	}
	if len(sr.Report.Completed) != 2 || sr.Report.GOPReports != 4 || sr.Report.FramesEncoded != 16 {
		t.Fatalf("post-restart report %+v — sessions did not survive the restart", sr.Report)
	}
}

// TestFleetCancellation: cancelling the context stops every shard and
// surfaces ctx.Err.
func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f, err := New(WithShards(2), WithRoundHook(func(int, *core.GOPOutcome) { cancel() }))
	if err != nil {
		t.Fatal(err)
	}
	classes := classesPerShard(t, f)
	for i, class := range classes {
		if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i+1), 16), Config: testSessionConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := f.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error %v, want context.Canceled", err)
	}
	for _, sr := range rep.Shards {
		if sr.Err != nil {
			t.Fatalf("cancellation misreported as shard %d fault: %v", sr.Shard, sr.Err)
		}
	}
}

// driftModel mirrors the core churn scenario's deterministic "thermal
// drift" time model.
func driftModel() func(codec.TileStats) time.Duration {
	n := 0
	return func(ts codec.TileStats) time.Duration {
		n++
		base := time.Duration(ts.Tile.Area()) * 40 * time.Nanosecond
		return base + base*time.Duration(n)/25
	}
}

// churnDirect runs the PR 2 churn acceptance scenario on a bare
// core.Server and returns its report and every round's outcome — the
// ground truth a one-shard fleet must reproduce.
func churnDirect(t *testing.T) (*core.ServiceReport, []*core.GOPOutcome) {
	t.Helper()
	var srv *core.Server
	var outs []*core.GOPOutcome
	motions := []medgen.MotionKind{medgen.Rotate, medgen.Pan, medgen.Sweep, medgen.Still}
	submitted := 0
	submit := func() {
		cfg := testSessionConfig()
		cfg.TimeModel = driftModel()
		vc := medgen.Default()
		vc.Width, vc.Height = 256, 192
		vc.Class = medgen.Brain
		vc.Motion = motions[submitted]
		vc.Frames = 16
		vc.Seed = int64(medgen.Brain)*100 + int64(motions[submitted]) + 1
		src := testGenerator(t, vc)
		if _, err := srv.Submit(src, cfg); err != nil {
			t.Fatal(err)
		}
		submitted++
	}
	var err error
	srv, err = core.NewServer(core.ServerConfig{
		Platform: mpsoc.XeonE5_2667V4(),
		FPS:      24,
		OnRound: func(out *core.GOPOutcome) {
			outs = append(outs, out)
			switch out.Round {
			case 0:
				submit()
			case 1:
				submit()
				srv.Close()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	submit()
	submit()
	rep, err := srv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep, outs
}

// TestRingSinkMatchesServiceReport is the fleet layer's compatibility
// criterion: on the existing churn scenario, a single-shard fleet reports
// exactly what the bare server does — through its ledger and through a
// ring-buffer sink's event-derived view alike — and the ring's retained
// outcomes are the bare server's rounds, bit for bit.
func TestRingSinkMatchesServiceReport(t *testing.T) {
	want, wantOuts := churnDirect(t)

	sink := NewRingSink(64)
	var f *Fleet
	submitted := 0
	motions := []medgen.MotionKind{medgen.Rotate, medgen.Pan, medgen.Sweep, medgen.Still}
	submit := func() {
		cfg := testSessionConfig()
		cfg.TimeModel = driftModel()
		vc := medgen.Default()
		vc.Width, vc.Height = 256, 192
		vc.Class = medgen.Brain
		vc.Motion = motions[submitted]
		vc.Frames = 16
		vc.Seed = int64(medgen.Brain)*100 + int64(motions[submitted]) + 1
		src := testGenerator(t, vc)
		if _, err := f.SubmitWith(SubmitRequest{Source: src, Config: cfg}); err != nil {
			t.Fatal(err)
		}
		submitted++
	}
	var err error
	f, err = New(
		WithShards(1),
		WithSink(sink),
		WithRoundHook(func(_ int, out *core.GOPOutcome) {
			switch out.Round {
			case 0:
				submit()
			case 1:
				submit()
				f.Close()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	submit()
	submit()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if sink.Dropped() != 0 {
		t.Fatalf("ring dropped %d outcomes — capacity too small for the scenario", sink.Dropped())
	}
	if got := rep.Shards[0].Report; !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet ledger differs from the bare server's:\n got %+v\nwant %+v", got, want)
	}
	if got := sink.Report().Shards[0].Report; !reflect.DeepEqual(got, want) {
		t.Fatalf("ring view differs from the bare server's report:\n got %+v\nwant %+v", got, want)
	}
	gotOuts := sink.Outcomes()
	if len(gotOuts) != len(wantOuts) {
		t.Fatalf("%d outcomes, want %d", len(gotOuts), len(wantOuts))
	}
	for r := range gotOuts {
		g, w := gotOuts[r], wantOuts[r]
		if g.Round != w.Round || g.EstimateErr != w.EstimateErr || g.EstimateTiles != w.EstimateTiles {
			t.Fatalf("round %d metrics differ: %+v vs %+v", r, g, w)
		}
		for id, gop := range w.GOPs {
			if g.GOPs[id] == nil || g.GOPs[id].Digest != gop.Digest {
				t.Fatalf("round %d session %d bitstream differs from the bare serving path", r, id)
			}
		}
	}
	ge, gt := core.MeanEstimateErr(gotOuts, 3)
	we, wt := core.MeanEstimateErr(wantOuts, 3)
	if ge != we || gt != wt {
		t.Fatalf("MeanEstimateErr (%v,%d), want (%v,%d)", ge, gt, we, wt)
	}
}

// TestRingSinkBounded: the ring keeps aggregates exact while trimming
// outcome memory to its capacity.
func TestRingSinkBounded(t *testing.T) {
	sink := NewRingSink(2)
	f, err := New(WithShards(1), WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, "c", 1, 16), Config: testSessionConfig()}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := sink.Report()
	if rep.Rounds != 4 || rep.GOPReports != 4 || rep.FramesEncoded != 16 {
		t.Fatalf("aggregates %d/%d/%d, want 4 rounds, 4 GOPs, 16 frames", rep.Rounds, rep.GOPReports, rep.FramesEncoded)
	}
	outs := sink.Outcomes()
	if len(outs) != 2 || sink.Dropped() != 2 {
		t.Fatalf("ring kept %d outcomes (dropped %d), want the last 2", len(outs), sink.Dropped())
	}
	if outs[0].Round != 2 || outs[1].Round != 3 {
		t.Fatalf("ring outcomes are rounds %d,%d — want the most recent 2,3", outs[0].Round, outs[1].Round)
	}
}

// TestFleetLUTPersistence: a fleet with WithLUTStore saves its merged
// warm LUTs on a clean run, and a new fleet at the same path starts with
// every shard warm (the restart-warm ROADMAP item).
func TestFleetLUTPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "luts.json")
	f, err := New(WithShards(2), WithLUTStore(path))
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
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("clean run did not save the LUT store: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("saved LUT store is empty")
	}

	// A restarted fleet starts warm: every shard's store already holds
	// both classes' estimates.
	f2, err := New(WithShards(2), WithLUTStore(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f2.shards {
		for _, class := range classes {
			lut := s.srv.Store().ForClass(class)
			if len(lut.Keys()) == 0 {
				t.Fatalf("shard %d class %q is cold after restart", s.index, class)
			}
		}
	}

	// Shards must not share the loaded store.
	f2.shards[0].srv.Store().ForClass(classes[0]).Observe(workload.Key{}, time.Millisecond)
	a := len(f2.shards[0].srv.Store().ForClass(classes[0]).Keys())
	b := len(f2.shards[1].srv.Store().ForClass(classes[0]).Keys())
	if a == b {
		t.Fatal("shards share one LUT store — estimation state must be per-shard")
	}

	// Corrupt file: New fails loudly instead of starting silently cold.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(WithShards(1), WithLUTStore(path)); err == nil {
		t.Fatal("corrupt LUT store accepted")
	}

	// Well-formed but hostile (a negative sum estimates −2.5 ms, which
	// stage D2 refuses every round): New fails with LoadStore's error
	// instead of starting shards that die on their first round.
	hostile := `{"version":1,"classes":[{"class":"brain","keys":[{"key":{},"count":2,"sum_ns":-5000000}]}]}`
	if err := os.WriteFile(path, []byte(hostile), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(WithShards(2), WithLUTStore(path)); err == nil || !strings.Contains(err.Error(), "sum -5000000") {
		t.Fatalf("hostile LUT store: New returned %v, want LoadStore's refusal", err)
	}
}

// TestFleetRunContract: Run refuses to overlap itself and New validates
// option errors.
func TestFleetRunContract(t *testing.T) {
	if _, err := New(WithShards(0)); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := New(WithAllocator("no-such-policy")); err == nil {
		t.Fatal("unknown allocator accepted")
	}
	f, err := New(WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = f.Run(context.Background()) }()
	for running := false; !running; runtime.Gosched() {
		f.mu.Lock()
		running = f.running
		f.mu.Unlock()
	}
	if _, err := f.Run(context.Background()); err == nil {
		t.Fatal("second concurrent Run allowed")
	}
	f.Close()
}
