package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/medgen"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/video"
	"repro/internal/workload"
)

// fourUserServer builds a server with four sessions of distinct body-part
// classes over an over-provisioned platform, so every round admits all
// users in both serving modes and outputs are comparable frame by frame.
// Session i runs modes[i]; without modes, every session is proposed.
func fourUserServer(t *testing.T, sequential bool, modes ...Mode) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Platform:   mpsoc.XeonE5_2667V4(),
		FPS:        24,
		Sequential: sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := []struct {
		class  medgen.Class
		motion medgen.MotionKind
	}{
		{medgen.Brain, medgen.Rotate},
		{medgen.Chest, medgen.Pan},
		{medgen.Bone, medgen.Sweep},
		{medgen.SpinalCord, medgen.Still},
	}
	for i, sp := range specs {
		mode := ModeProposed
		if len(modes) > 0 {
			mode = modes[i]
		}
		cfg := testSessionConfig(mode)
		cfg.Workers = 2
		if _, err := srv.Submit(testSource(t, sp.class, sp.motion, 8), cfg); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// TestServeAllConcurrentMatchesSequential is the bit-identity contract of
// the concurrent serving loop: four sessions served in parallel must
// produce exactly the bitstreams the sequential reference path produces.
// Run under -race this also exercises the cross-session concurrency.
func TestServeAllConcurrentMatchesSequential(t *testing.T) {
	seq := fourUserServer(t, true)
	par := fourUserServer(t, false)

	seqOuts, err := seq.ServeAll(10)
	if err != nil {
		t.Fatal(err)
	}
	parOuts, err := par.ServeAll(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqOuts) != len(parOuts) {
		t.Fatalf("rounds: sequential %d, concurrent %d", len(seqOuts), len(parOuts))
	}
	for round := range seqOuts {
		so, po := seqOuts[round], parOuts[round]
		if !equalInts(so.AdmittedUsers, po.AdmittedUsers) {
			t.Fatalf("round %d admitted: sequential %v, concurrent %v", round, so.AdmittedUsers, po.AdmittedUsers)
		}
		for _, id := range so.AdmittedUsers {
			sg, pg := so.GOPs[id], po.GOPs[id]
			if sg == nil || pg == nil {
				t.Fatalf("round %d user %d missing GOP report", round, id)
			}
			if sg.Digest != pg.Digest {
				t.Fatalf("round %d user %d: bitstream digest %x (sequential) != %x (concurrent)",
					round, id, sg.Digest, pg.Digest)
			}
			if len(sg.Frames) != len(pg.Frames) {
				t.Fatalf("round %d user %d: frame counts differ", round, id)
			}
			for i := range sg.Frames {
				sf, pf := sg.Frames[i], pg.Frames[i]
				if sf.Bits != pf.Bits || sf.PSNR != pf.PSNR || sf.Digest != pf.Digest {
					t.Fatalf("round %d user %d frame %d: sequential (%d bits, %.3f dB, %x) != concurrent (%d bits, %.3f dB, %x)",
						round, id, i, sf.Bits, sf.PSNR, sf.Digest, pf.Bits, pf.PSNR, pf.Digest)
				}
			}
		}
	}
	for i, rec := range par.records {
		if !rec.sess.Finished() {
			t.Fatalf("concurrent session %d not finished", i)
		}
	}
}

// TestConcurrentWorkersFollowAllocation checks that the serving loop hands
// each session the parallelism its allocation planned rather than the
// global Workers constant.
func TestConcurrentWorkersFollowAllocation(t *testing.T) {
	srv := fourUserServer(t, false)
	out, err := srv.ServeGOP()
	if err != nil {
		t.Fatal(err)
	}
	if out.Allocation.UserCores == nil {
		t.Fatal("allocation has no per-user core counts")
	}
	for _, id := range out.AdmittedUsers {
		if got := out.Allocation.CoresOf(id); got < 1 {
			t.Fatalf("user %d core budget %d", id, got)
		}
	}
}

// rejectUserOnce wraps Algorithm 2 so a chosen user is refused exactly
// once — the following rounds use the plain allocator.
func rejectUserOnce(user int) AllocatorFunc {
	reject, done := rejectUserAlways(user), false
	return func(in sched.Input) (*sched.Result, error) {
		if done {
			return sched.AllocateContentAware(in)
		}
		done = true
		return reject(in)
	}
}

// rejectUserAlways wraps Algorithm 2 so user is refused on every solve.
func rejectUserAlways(user int) AllocatorFunc {
	return func(in sched.Input) (*sched.Result, error) {
		kept := in
		kept.Users = nil
		for _, u := range in.Users {
			if u.User != user {
				kept.Users = append(kept.Users, u)
			}
		}
		res, err := sched.AllocateContentAware(kept)
		if err != nil {
			return nil, err
		}
		res.Rejected = append(res.Rejected, user)
		sort.Ints(res.Rejected)
		return res, nil
	}
}

// TestRejectedSessionReestimatesCleanly serves a session that is rejected
// in round 1 and admitted in round 2, and checks its encoded output is
// identical to a session that was never rejected: rejection must leave no
// stale grid or adaptation state behind.
func TestRejectedSessionReestimatesCleanly(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Platform:  mpsoc.XeonE5_2667V4(),
		FPS:       24,
		Allocator: rejectUserOnce(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := testSource(t, medgen.Brain, medgen.Rotate, 8)
	other := testSource(t, medgen.Chest, medgen.Pan, 8)
	if _, err := srv.Submit(victim, testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(other, testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}

	out1, err := srv.ServeGOP()
	if err != nil {
		t.Fatal(err)
	}
	if containsInt(out1.AdmittedUsers, 0) || !containsInt(out1.RejectedUsers, 0) {
		t.Fatalf("round 1 should reject user 0: admitted %v rejected %v", out1.AdmittedUsers, out1.RejectedUsers)
	}
	if srv.records[0].sess.frame != 0 {
		t.Fatalf("rejected session advanced to frame %d", srv.records[0].sess.frame)
	}

	out2, err := srv.ServeGOP()
	if err != nil {
		t.Fatal(err)
	}
	if !containsInt(out2.AdmittedUsers, 0) {
		t.Fatalf("round 2 should admit user 0: %v", out2.AdmittedUsers)
	}

	// Control: the same video encoded by a session that was never parked.
	control, err := NewSession(0, testSource(t, medgen.Brain, medgen.Rotate, 8),
		testSessionConfig(ModeProposed), workload.NewLUT())
	if err != nil {
		t.Fatal(err)
	}
	if err := control.prepareForEstimation(); err != nil {
		t.Fatal(err)
	}
	want, err := control.EncodeGOP()
	if err != nil {
		t.Fatal(err)
	}
	got := out2.GOPs[0]
	if got.Digest != want.Digest {
		t.Fatalf("post-rejection GOP digest %x differs from control %x — stale state after rejection", got.Digest, want.Digest)
	}
}

// badAfterSource serves valid frames up to badFrom, then frames of the
// wrong geometry so the encoder fails mid-GOP.
type badAfterSource struct {
	FrameSource
	badFrom int
}

func (b *badAfterSource) Frame(n int) *video.Frame {
	if n >= b.badFrom {
		return video.NewFrame(8, 8)
	}
	return b.FrameSource.Frame(n)
}

// TestServeGOPReturnsPartialOutcomeOnError checks the error contract: when
// one session fails mid-round, the outcome still carries the completed
// sessions' GOP reports so their energy/quality can be accounted.
func TestServeGOPReturnsPartialOutcomeOnError(t *testing.T) {
	for _, sequential := range []bool{false, true} {
		srv, err := NewServer(ServerConfig{
			Platform:   mpsoc.XeonE5_2667V4(),
			FPS:        24,
			Sequential: sequential,
		})
		if err != nil {
			t.Fatal(err)
		}
		good := testSource(t, medgen.Brain, medgen.Rotate, 8)
		bad := &badAfterSource{FrameSource: testSource(t, medgen.Chest, medgen.Pan, 8), badFrom: 1}
		if _, err := srv.Submit(good, testSessionConfig(ModeProposed)); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Submit(bad, testSessionConfig(ModeProposed)); err != nil {
			t.Fatal(err)
		}
		out, err := srv.ServeGOP()
		if err == nil {
			t.Fatal("round with a failing session succeeded")
		}
		if !strings.Contains(err.Error(), "session 1") {
			t.Fatalf("error does not name the failing session: %v", err)
		}
		if out == nil {
			t.Fatal("no partial outcome alongside the error")
		}
		// The concurrent path always completes the healthy session; the
		// sequential path completes it because id 0 encodes before id 1.
		if out.GOPs[0] == nil {
			t.Fatalf("sequential=%v: healthy session's completed GOP was discarded", sequential)
		}
		if out.GOPs[1] != nil {
			t.Fatal("failed session has a GOP report")
		}
	}
}

// panicAtSource panics when asked for frame panicAt — how a FrameSource
// whose signature has no error return reports an I/O failure
// (YUVFileSource does exactly this).
type panicAtSource struct {
	FrameSource
	panicAt int
}

func (p *panicAtSource) Frame(n int) *video.Frame {
	if n == p.panicAt {
		panic(fmt.Sprintf("panicAtSource: read frame %d: simulated I/O error", n))
	}
	return p.FrameSource.Frame(n)
}

// TestPanickingSourceFailsOneSession is the regression test for a source
// panic killing the process from inside a session's encode goroutine: the
// panic must cost that one session its stream (StateFailed, with the
// cause) while the round settles and the other session keeps streaming,
// bit-identical to being served alone. Frame 5 panics mid-GOP inside the
// encode; frame 4 panics in the estimate-ahead analysis of the next GOP.
func TestPanickingSourceFailsOneSession(t *testing.T) {
	serve := func(sequential bool, victimPanicsAt int) (*ServiceReport, []uint64) {
		srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24, Sequential: sequential})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Submit(testSource(t, medgen.Brain, medgen.Rotate, 12), testSessionConfig(ModeProposed)); err != nil {
			t.Fatal(err)
		}
		if victimPanicsAt >= 0 {
			victim := &panicAtSource{testSource(t, medgen.Chest, medgen.Pan, 12), victimPanicsAt}
			if _, err := srv.Submit(victim, testSessionConfig(ModeProposed)); err != nil {
				t.Fatal(err)
			}
		}
		srv.Close()
		rep, outs := runKeeping(t, srv)
		return rep, gopDigests(outs, 0)
	}
	_, solo := serve(false, -1)
	if len(solo) != 3 {
		t.Fatalf("solo control served %d GOPs, want 3", len(solo))
	}
	for _, tc := range []struct {
		sequential bool
		panicAt    int
	}{{false, 5}, {false, 4}, {true, 5}} {
		rep, survivor := serve(tc.sequential, tc.panicAt)
		if fmt.Sprint(rep.Completed) != "[0]" || fmt.Sprint(rep.Failed) != "[1]" {
			t.Fatalf("%+v: completed %v failed %v, want the survivor completed and the victim failed", tc, rep.Completed, rep.Failed)
		}
		if err := rep.Errors[1]; err == nil || !strings.Contains(err.Error(), "simulated I/O error") {
			t.Fatalf("%+v: victim's error %v does not carry the panic", tc, err)
		}
		if fmt.Sprint(survivor) != fmt.Sprint(solo) {
			t.Fatalf("%+v: survivor's digest chain differs from its solo run:\n got %x\nwant %x", tc, survivor, solo)
		}
	}
}

// panicOnCallSource panics on its n-th Frame call (1-based), whatever the
// frame — the way to fail a session's very first GOP: NewSession reads
// frame 0 once at Submit, stage A reads it again on the serving goroutine.
type panicOnCallSource struct {
	FrameSource
	n, calls int
}

func (p *panicOnCallSource) Frame(n int) *video.Frame {
	if p.calls++; p.calls == p.n {
		panic(fmt.Sprintf("panicOnCallSource: read frame %d: simulated I/O error", n))
	}
	return p.FrameSource.Frame(n)
}

// TestPanickingSourceInStageACostsOneSession is the regression test for a
// stage A–C failure on the serving goroutine — a session's first GOP, or
// any GOP in Sequential mode, where no estimate-ahead ran inside an encode
// goroutine — surfacing as a round-level error: Run returned it and the
// fleet supervisor restarted the whole shard. It must cost the one session
// its stream and nothing else: Run ends cleanly (no restart), the victim
// is StateFailed with the cause, the three healthy sessions complete.
func TestPanickingSourceInStageACostsOneSession(t *testing.T) {
	for _, tc := range []struct {
		name       string
		sequential bool
		// ladder refuses the victim once with the admission ladder on, so
		// its first rung re-reads the frame stage A just read.
		ladder bool
		victim func() FrameSource
	}{
		{"first GOP, concurrent", false, false, func() FrameSource {
			return &panicOnCallSource{FrameSource: testSource(t, medgen.Chest, medgen.Pan, 12), n: 2}
		}},
		{"first GOP, sequential", true, false, func() FrameSource {
			return &panicOnCallSource{FrameSource: testSource(t, medgen.Chest, medgen.Pan, 12), n: 2}
		}},
		{"second GOP, sequential", true, false, func() FrameSource {
			return &panicAtSource{testSource(t, medgen.Chest, medgen.Pan, 12), 4}
		}},
		{"ladder's degrade re-read", false, true, func() FrameSource {
			return &panicOnCallSource{FrameSource: testSource(t, medgen.Chest, medgen.Pan, 12), n: 3}
		}},
	} {
		var states []string
		var allocator AllocatorFunc
		if tc.ladder {
			allocator = rejectUserOnce(1)
		}
		srv, err := NewServer(ServerConfig{
			Platform: mpsoc.XeonE5_2667V4(), FPS: 24, Sequential: tc.sequential,
			Allocator: allocator, Admission: AdmissionConfig{Enabled: tc.ladder},
			OnSessionState: func(id int, state SessionState, _ error) {
				if state != StateQueued {
					states = append(states, fmt.Sprintf("%d:%v", id, state))
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		healthy := []medgen.Class{medgen.Brain, medgen.Bone, medgen.SpinalCord}
		for i, src := range []FrameSource{
			testSource(t, healthy[0], medgen.Rotate, 12),
			tc.victim(),
			testSource(t, healthy[1], medgen.Rotate, 12),
			testSource(t, healthy[2], medgen.Rotate, 12),
		} {
			if _, err := srv.Submit(src, testSessionConfig(ModeProposed)); err != nil {
				t.Fatalf("%s: submit %d: %v", tc.name, i, err)
			}
		}
		srv.Close()
		rep, outs := runKeeping(t, srv) // fatals if Run returns a round-level error
		if fmt.Sprint(rep.Completed) != "[0 2 3]" || fmt.Sprint(rep.Failed) != "[1]" {
			t.Fatalf("%s: completed %v failed %v, want the three healthy sessions completed and the victim failed", tc.name, rep.Completed, rep.Failed)
		}
		if err := rep.Errors[1]; err == nil || !strings.Contains(err.Error(), "simulated I/O error") {
			t.Fatalf("%s: victim's error %v does not carry the panic", tc.name, err)
		}
		if st, _ := srv.StateOf(1); st != StateFailed {
			t.Fatalf("%s: victim is %v, want failed", tc.name, st)
		}
		if n := strings.Count(strings.Join(states, " "), "1:failed"); n != 1 {
			t.Fatalf("%s: victim's failure notified %d times in %v, want once", tc.name, n, states)
		}
		for _, id := range []int{0, 2, 3} {
			if got := len(gopDigests(outs, id)); got != 3 {
				t.Fatalf("%s: healthy session %d served %d GOPs, want 3", tc.name, id, got)
			}
		}
	}

	// Alone on the server, the victim leaves a round with nobody to serve:
	// no outcome, no round counted, and still a clean end of service.
	srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	victim := &panicOnCallSource{FrameSource: testSource(t, medgen.Chest, medgen.Pan, 12), n: 2}
	if _, err := srv.Submit(victim, testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	rep, outs := runKeeping(t, srv)
	if fmt.Sprint(rep.Failed) != "[0]" || rep.Rounds != 0 || len(outs) != 0 {
		t.Fatalf("solo victim: failed %v, %d rounds, %d outcomes; want [0], 0, 0", rep.Failed, rep.Rounds, len(outs))
	}
}

// TestRoundEventOrder pins the cross-session order of the hooks a Run
// fires, which sinks (JSONL, metrics, the ring) see as the event stream:
// within a round, stage A–C failures, then queue-deadline rejections, then
// encode failures, then completions, each ascending by id, and OnRound
// last. Sessions 0 and 1 complete in the same round; session 2's encode
// fails on its second frame; session 3 is refused every solve and times
// out; session 4 arrives after round 0 and its stage A fails. Both serving
// paths fire the same sequence.
func TestRoundEventOrder(t *testing.T) {
	for _, sequential := range []bool{false, true} {
		var events []string
		var srv *Server
		srv, err := NewServer(ServerConfig{
			Platform: mpsoc.XeonE5_2667V4(), FPS: 24, Sequential: sequential,
			Allocator: rejectUserAlways(3),
			Admission: AdmissionConfig{Enabled: true, MaxQueueRounds: 1},
			OnSessionState: func(id int, state SessionState, _ error) {
				if state != StateQueued {
					events = append(events, fmt.Sprintf("%d:%v", id, state))
				}
			},
			OnRound: func(out *GOPOutcome) {
				events = append(events, fmt.Sprintf("round %d", out.Round))
				if out.Round == 0 {
					victim := &panicOnCallSource{FrameSource: testSource(t, medgen.Chest, medgen.Pan, 12), n: 2}
					if _, err := srv.Submit(victim, testSessionConfig(ModeProposed)); err != nil {
						t.Error(err)
					}
					srv.Close()
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, src := range []FrameSource{
			testSource(t, medgen.Brain, medgen.Rotate, 8),
			testSource(t, medgen.Bone, medgen.Sweep, 8),
			&badAfterSource{FrameSource: testSource(t, medgen.Chest, medgen.Pan, 8), badFrom: 1},
			testSource(t, medgen.SpinalCord, medgen.Still, 8),
		} {
			if _, err := srv.Submit(src, testSessionConfig(ModeProposed)); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		if _, err := srv.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		want := "[2:failed round 0 4:failed 3:rejected 0:completed 1:completed round 1]"
		if got := fmt.Sprint(events); got != want {
			t.Fatalf("sequential=%v: events\n got %s\nwant %s", sequential, got, want)
		}
	}
}

// TestServeGOPCancellation checks context plumbing end to end: a cancelled
// context aborts the round with the context's error.
func TestServeGOPCancellation(t *testing.T) {
	srv := fourUserServer(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := srv.serveRound(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEstimateAheadPreparesNextGOP checks the overlap stage: after a round
// completes, every unfinished session already has stages A–C done for its
// next GOP, so the next round's estimation prices the new grid, not the
// previous GOP's.
func TestEstimateAheadPreparesNextGOP(t *testing.T) {
	srv := fourUserServer(t, false)
	if _, err := srv.ServeGOP(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range srv.records {
		sess := rec.sess
		if sess.Finished() {
			continue
		}
		if sess.preparedFor != sess.frame {
			t.Fatalf("session %d prepared for frame %d, next frame %d — estimation would see a stale grid",
				sess.ID, sess.preparedFor, sess.frame)
		}
	}
}

// TestEncodeGOPResumesToBoundary checks that a session resumed mid-GOP
// (e.g. after a cancellation) encodes only up to the GOP boundary: one
// report must never span two GOPs or two tile grids.
func TestEncodeGOPResumesToBoundary(t *testing.T) {
	s := newTestSession(t, ModeProposed) // 8 frames, GOP 4
	for i := 0; i < 2; i++ {
		if _, err := s.EncodeNextFrame(); err != nil {
			t.Fatal(err)
		}
	}
	gop, err := s.EncodeGOP()
	if err != nil {
		t.Fatal(err)
	}
	if len(gop.Frames) != 2 {
		t.Fatalf("mid-GOP resume encoded %d frames, want 2 (to the boundary)", len(gop.Frames))
	}
	if gop.Index != 0 {
		t.Fatalf("resumed GOP index %d, want 0", gop.Index)
	}
	if s.frame != 4 {
		t.Fatalf("session at frame %d after resume, want the GOP boundary 4", s.frame)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// frameDigest hashes every sample of a frame.
func frameDigest(f *video.Frame) uint64 {
	h := fnv.New64a()
	for _, p := range []*video.Plane{f.Y, f.Cb, f.Cr} {
		h.Write(p.Pix)
	}
	return h.Sum64()
}

// TestSharedGeneratorStaysReadOnly is FrameSource's read-only contract:
// three sessions on one generator, in both modes, are served concurrently
// from the frames it renders once, and afterwards every frame still equals
// a fresh generator's render, so nothing wrote into a source frame. Run
// under -race this also exercises the generator's memo.
func TestSharedGeneratorStaysReadOnly(t *testing.T) {
	vc := medgen.Default()
	vc.Width, vc.Height, vc.Frames = 256, 192, 8
	vc.Class, vc.Motion, vc.Seed = medgen.Chest, medgen.Pan, 7
	shared, err := medgen.NewGenerator(vc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeProposed, ModeBaseline, ModeProposed} {
		cfg := testSessionConfig(mode)
		cfg.Workers = 2
		if _, err := srv.Submit(shared, cfg); err != nil {
			t.Fatal(err)
		}
	}
	outs, err := srv.ServeAll(10)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range srv.records {
		if !rec.sess.Finished() {
			t.Fatalf("session %d not finished", i)
		}
	}
	if a, b := gopDigests(outs, 0), gopDigests(outs, 2); !reflect.DeepEqual(a, b) {
		t.Fatalf("two proposed sessions on one generator encoded differently: %x vs %x", a, b)
	}
	fresh, err := medgen.NewGenerator(vc)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < vc.Frames; n++ {
		if got, want := frameDigest(shared.Frame(n)), frameDigest(fresh.Frame(n)); got != want {
			t.Fatalf("frame %d: digest %x after serving, fresh render %x", n, got, want)
		}
	}
}
