package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpsoc"
)

// classHomedOn searches for a class name the fleet's current ring homes
// on the given shard.
func classHomedOn(t *testing.T, f *Fleet, shard int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		class := fmt.Sprintf("elastic-%d-%d", shard, i)
		if f.HomeShard(class) == shard {
			return class
		}
	}
	t.Fatalf("no class homes on shard %d", shard)
	return ""
}

// soloDigests serves one source alone on a bare server and returns its
// per-GOP bitstream digests — the ground truth a migrated run of the
// same source must reproduce bit for bit.
func soloDigests(t *testing.T, src core.FrameSource) []uint64 {
	t.Helper()
	srv, err := core.NewServer(core.ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(src, testSessionConfig()); err != nil {
		t.Fatal(err)
	}
	outs, err := srv.ServeAll(64)
	if err != nil {
		t.Fatal(err)
	}
	var digests []uint64
	for _, out := range outs {
		if gop := out.GOPs[0]; gop != nil {
			digests = append(digests, gop.Digest)
		}
	}
	return digests
}

// stitchDigests follows a session across migrations and rebalances:
// starting from its submission key (shard, session), it chains the
// per-key GOP digests in GOP-index order, hopping keys at every
// migration/rebalance event. Returns the digests and the total frames
// observed.
func stitchDigests(sink *recordingSink, shard, session int) ([]uint64, int) {
	sink.mu.Lock()
	defer sink.mu.Unlock()
	type key struct{ shard, session int }
	gops := make(map[key][]GOPEvent)
	for _, e := range sink.gops {
		k := key{e.Shard, e.Session}
		gops[k] = append(gops[k], e)
	}
	next := make(map[key]key)
	for _, m := range append(append([]MigrationEvent(nil), sink.migrations...), sink.rebalances...) {
		next[key{m.FromShard, m.FromSession}] = key{m.ToShard, m.ToSession}
	}
	var digests []uint64
	frames := 0
	k := key{shard, session}
	for hops := 0; hops < 100; hops++ {
		evs := gops[k]
		// Per (shard, session) the GOPs arrive in round order (the Sink
		// contract), which is GOP-index order for one session.
		for _, e := range evs {
			digests = append(digests, e.GOP.Digest)
			frames += len(e.GOP.Frames)
		}
		nk, ok := next[k]
		if !ok {
			break
		}
		k = nk
	}
	return digests, frames
}

// TestFleetElasticChurn is the acceptance scenario: a fleet resizes
// 2→4→3 while serving, the drained shard's session migrates at a GOP
// boundary, nothing is lost — every session completes, frame and GOP
// counts add up exactly — and the migrated session's bitstream digests
// equal the same session served solo without migration.
func TestFleetElasticChurn(t *testing.T) {
	sink := &recordingSink{}
	ticks := make(chan int, 256)
	f, err := New(WithShards(2), WithSink(sink), WithRoundHook(func(shard int, out *core.GOPOutcome) {
		select {
		case ticks <- shard:
		default:
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	waitRound := func(shard int) {
		t.Helper()
		deadline := time.After(60 * time.Second)
		for {
			select {
			case s := <-ticks:
				if shard < 0 || s == shard {
					return
				}
			case <-deadline:
				t.Fatal("timed out waiting for a serving round")
			}
		}
	}

	// Two sessions on the initial shards, long enough to outlive both
	// resizes.
	classes := classesPerShard(t, f)
	for i, class := range classes {
		if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i+1), 24), Config: testSessionConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	var rep *Report
	var runErr error
	runDone := make(chan struct{})
	go func() {
		rep, runErr = f.Run(context.Background())
		close(runDone)
	}()

	// Grow 2→4 once the fleet is visibly serving.
	waitRound(-1)
	if err := f.resize(4); err != nil {
		t.Fatal(err)
	}
	if got := f.liveShards(); got != 4 {
		t.Fatalf("live shards %d after grow, want 4", got)
	}

	// The migration victim: a long session homed on shard 3 — the shard
	// the shrink will remove.
	victimClass := classHomedOn(t, f, 3)
	const victimFrames = 32
	p, err := f.SubmitWith(SubmitRequest{Source: testSource(t, victimClass, 7, victimFrames), Config: testSessionConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if p.Shard != 3 {
		t.Fatalf("victim landed on shard %d, want its home 3", p.Shard)
	}
	// Capture the donor-side id now: adoption renames the live session.
	victimID := p.Session.ID

	// Let shard 3 serve a couple of GOP rounds, then shrink 4→3: shard 3
	// drains at the next GOP boundary and hands the victim over.
	waitRound(3)
	waitRound(3)
	if err := f.resize(3); err != nil {
		t.Fatal(err)
	}
	if got := f.liveShards(); got != 3 {
		t.Fatalf("live shards %d after shrink, want 3", got)
	}
	f.Close()
	<-runDone
	if runErr != nil {
		t.Fatal(runErr)
	}

	// Nothing lost: every session completed, and frame/GOP counts add up
	// across all shards — including the rounds the donor served.
	if rep.Submitted != 3 || rep.Completed != 3 || rep.Failed != 0 || rep.Rejected != 0 {
		t.Fatalf("report %+v, want 3 unique sessions all completed", rep)
	}
	if rep.Migrated != 1 {
		t.Fatalf("migration hops %d, want exactly 1 (the victim)", rep.Migrated)
	}
	wantFrames := 24 + 24 + victimFrames
	wantGOPs := 6 + 6 + victimFrames/4
	if rep.FramesEncoded != wantFrames || rep.GOPReports != wantGOPs {
		t.Fatalf("frames/GOPs %d/%d, want %d/%d — the resize lost work",
			rep.FramesEncoded, rep.GOPReports, wantFrames, wantGOPs)
	}

	// The sink saw the membership changes and the handoff, in a
	// consistent shape.
	sink.mu.Lock()
	added, removed, migs := append([]ShardEvent(nil), sink.added...),
		append([]ShardEvent(nil), sink.removed...),
		append([]MigrationEvent(nil), sink.migrations...)
	sink.mu.Unlock()
	if len(added) != 2 || added[0].Shard != 2 || added[1].Shard != 3 {
		t.Fatalf("shard-added events %+v, want shards 2 and 3", added)
	}
	if len(removed) != 1 || removed[0].Shard != 3 || removed[0].Live != 3 {
		t.Fatalf("shard-removed events %+v, want shard 3 with 3 live", removed)
	}
	if len(migs) != 1 {
		t.Fatalf("migration events %+v, want 1", migs)
	}
	m := migs[0]
	if m.FromShard != 3 || m.FromSession != victimID || m.ToShard == 3 || m.Class != victimClass {
		t.Fatalf("migration event %+v inconsistent with the victim", m)
	}
	if m.Frame%4 != 0 || m.Frame == 0 || m.Frame >= victimFrames {
		t.Fatalf("migrated at frame %d — not a mid-stream GOP boundary", m.Frame)
	}
	if p.Session.ID != m.ToSession {
		t.Fatalf("live session renamed to %d, migration event says %d", p.Session.ID, m.ToSession)
	}

	// Bit-identity: the victim's digest chain across both shards equals
	// the same session served solo.
	got, frames := stitchDigests(sink, 3, victimID)
	want := soloDigests(t, testSource(t, victimClass, 7, victimFrames))
	if frames != victimFrames {
		t.Fatalf("victim frames across shards %d, want %d", frames, victimFrames)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("migrated digest chain differs from the unmigrated run:\n got %v\nwant %v", got, want)
	}
}

// TestResizeDrainsHomeShardDuringChurn: removing the home shard of a
// class while its sessions stream and new ones keep arriving loses
// nothing — in-flight sessions migrate, later arrivals route to the
// class's new home.
func TestResizeDrainsHomeShardDuringChurn(t *testing.T) {
	sink := &recordingSink{}
	ticks := make(chan int, 256)
	f, err := New(WithShards(3), WithSink(sink), WithRoundHook(func(shard int, _ *core.GOPOutcome) {
		select {
		case ticks <- shard:
		default:
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	class := classHomedOn(t, f, 2) // homed on the shard the shrink removes
	for j := 0; j < 2; j++ {
		if p, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(j+1), 16), Config: testSessionConfig()}); err != nil {
			t.Fatal(err)
		} else if p.Shard != 2 {
			t.Fatalf("session routed to shard %d, want home 2", p.Shard)
		}
	}
	var rep *Report
	var runErr error
	runDone := make(chan struct{})
	go func() {
		rep, runErr = f.Run(context.Background())
		close(runDone)
	}()
	deadline := time.After(60 * time.Second)
	seen := 0
	for seen < 2 {
		select {
		case s := <-ticks:
			if s == 2 {
				seen++
			}
		case <-deadline:
			t.Fatal("shard 2 never served")
		}
	}
	if err := f.resize(2); err != nil {
		t.Fatal(err)
	}
	// A post-shrink arrival of the same class routes to the new home —
	// never to the removed shard.
	late, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, 3, 8), Config: testSessionConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if late.Shard == 2 {
		t.Fatal("arrival routed to the removed shard")
	}
	if want := f.HomeShard(class); late.Shard != want {
		t.Fatalf("arrival on shard %d, want the class's new home %d", late.Shard, want)
	}
	f.Close()
	<-runDone
	if runErr != nil {
		t.Fatal(runErr)
	}
	if rep.Submitted != 3 || rep.Completed != 3 || rep.Migrated != 2 {
		t.Fatalf("report %+v, want 3 completed with 2 migrations", rep)
	}
	// Zero lost GOP reports through the home-shard drain.
	if rep.FramesEncoded != 16+16+8 || rep.GOPReports != 4+4+2 {
		t.Fatalf("frames/GOPs %d/%d, want 40/10", rep.FramesEncoded, rep.GOPReports)
	}
	// The drained shard's estimation heat moved with the class.
	if lut := f.shardAt(late.Shard).srv.Store().ForClass(class); len(lut.Keys()) == 0 {
		t.Fatal("class LUT did not migrate with its sessions")
	}
}

// TestResizeUpThenImmediatelyDown: growing and immediately shrinking
// while serving is a clean no-op for the session population.
func TestResizeUpThenImmediatelyDown(t *testing.T) {
	ticks := make(chan int, 64)
	f, err := New(WithShards(2), WithRoundHook(func(shard int, _ *core.GOPOutcome) {
		select {
		case ticks <- shard:
		default:
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	classes := classesPerShard(t, f)
	for i, class := range classes {
		if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i+1), 16), Config: testSessionConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	var rep *Report
	var runErr error
	runDone := make(chan struct{})
	go func() {
		rep, runErr = f.Run(context.Background())
		close(runDone)
	}()
	select {
	case <-ticks:
	case <-time.After(60 * time.Second):
		t.Fatal("fleet never served")
	}
	if err := f.resize(4); err != nil {
		t.Fatal(err)
	}
	if err := f.resize(2); err != nil {
		t.Fatal(err)
	}
	if got := f.liveShards(); got != 2 {
		t.Fatalf("live shards %d, want 2", got)
	}
	f.Close()
	<-runDone
	if runErr != nil {
		t.Fatal(runErr)
	}
	if rep.Submitted != 2 || rep.Completed != 2 || rep.Failed != 0 {
		t.Fatalf("report %+v, want both sessions completed", rep)
	}
	if rep.FramesEncoded != 32 || rep.GOPReports != 8 {
		t.Fatalf("frames/GOPs %d/%d, want 32/8", rep.FramesEncoded, rep.GOPReports)
	}
}

// TestResizeIdleFleet: resizing between runs — grow, shrink with queued
// sessions, then serve — migrates the queued sessions inline and loses
// nothing. Loads reports gone shards as Alive=false zero reports.
func TestResizeIdleFleet(t *testing.T) {
	f, err := New(WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	classes := classesPerShard(t, f)
	if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, classes[0], 1, 8), Config: testSessionConfig()}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, classes[1], 2, 8), Config: testSessionConfig()}); err != nil {
		t.Fatal(err)
	}
	loads := f.Loads()
	if len(loads) != 2 || loads[0].Sessions != 1 || loads[1].Sessions != 1 ||
		!loads[0].Alive || !loads[1].Alive {
		t.Fatalf("Loads() = %+v, want one alive session on each shard", loads)
	}
	// Shrink to 1 with nothing running: shard 1's session migrates
	// inline onto shard 0.
	if err := f.resize(1); err != nil {
		t.Fatal(err)
	}
	loads = f.Loads()
	if len(loads) != 2 || loads[0].Sessions != 2 || !loads[0].Alive {
		t.Fatalf("Loads() after idle shrink = %+v, want 2 alive sessions on shard 0", loads)
	}
	if dead := loads[1]; dead.Alive || dead.Sessions != 0 || dead.DemandCores != 0 || dead.CapacityCores != 0 {
		t.Fatalf("gone shard reports %+v, want a dead zero report", dead)
	}
	if got := SumLoads(loads).Sessions; got != 2 {
		t.Fatalf("SumLoads(Loads()).Sessions = %d, want 2", got)
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 2 || rep.Completed != 2 || rep.Migrated != 1 {
		t.Fatalf("report %+v, want 2 completed with 1 migration", rep)
	}
	if rep.FramesEncoded != 16 || rep.GOPReports != 4 {
		t.Fatalf("frames/GOPs %d/%d, want 16/4", rep.FramesEncoded, rep.GOPReports)
	}
	if err := f.resize(0); err == nil {
		t.Fatal("Resize(0) accepted")
	}
}
