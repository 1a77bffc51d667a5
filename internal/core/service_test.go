package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/medgen"
	"repro/internal/mpsoc"
	"repro/internal/video"
	"repro/internal/workload"
)

// driftModel returns a deterministic TimeModel simulating a host that
// slows down as it runs (thermal drift): the modeled tile time grows with
// every tile the session encodes. Deterministic — it depends only on tile
// geometry and call order, both fixed for a given source — so every run of
// one scenario sees identical "measurements".
func driftModel() func(codec.TileStats) time.Duration {
	n := 0
	return func(ts codec.TileStats) time.Duration {
		n++
		base := time.Duration(ts.Tile.Area()) * 40 * time.Nanosecond
		return base + base*time.Duration(n)/25
	}
}

// runKeeping drives srv.Run to its end and keeps every round's outcome
// through the OnRound hook (chained ahead of a hook already installed) —
// the per-round record the cumulative ServiceReport does not hold.
func runKeeping(t *testing.T, srv *Server) (*ServiceReport, []*GOPOutcome) {
	t.Helper()
	var outs []*GOPOutcome
	hook := srv.cfg.OnRound
	srv.cfg.OnRound = func(out *GOPOutcome) {
		outs = append(outs, out)
		if hook != nil {
			hook(out)
		}
	}
	rep, err := srv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep, outs
}

// churnService runs the acceptance scenario: two sessions are submitted
// up front, two more arrive at staggered times (after rounds 0 and 1) from
// the OnRound hook, and the queue closes once everyone is in.
func churnService(t *testing.T) (*ServiceReport, []*GOPOutcome, *Server) {
	t.Helper()
	srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	motions := []medgen.MotionKind{medgen.Rotate, medgen.Pan, medgen.Sweep, medgen.Still}
	submit := func(i int) {
		cfg := testSessionConfig(ModeProposed)
		cfg.TimeModel = driftModel()
		if _, err := srv.Submit(testSource(t, medgen.Brain, motions[i], 16), cfg); err != nil {
			t.Fatal(err)
		}
	}
	submit(0)
	submit(1)
	srv.cfg.OnRound = func(out *GOPOutcome) {
		switch out.Round {
		case 0:
			submit(2)
		case 1:
			submit(3)
			srv.Close()
		}
	}
	rep, outs := runKeeping(t, srv)
	return rep, outs, srv
}

// TestRunServesChurnWithoutLosingReports is the acceptance scenario:
// sessions submitted at staggered times are admitted, served and completed
// by Run with zero lost GOP reports.
func TestRunServesChurnWithoutLosingReports(t *testing.T) {
	rep, outs, srv := churnService(t)

	if rep.Submitted != 4 {
		t.Fatalf("submitted %d, want 4", rep.Submitted)
	}
	if len(rep.Completed) != 4 || len(rep.Rejected) != 0 || len(rep.Failed) != 0 {
		t.Fatalf("completed %v rejected %v failed %v", rep.Completed, rep.Rejected, rep.Failed)
	}
	for id := 0; id < 4; id++ {
		if st, ok := srv.StateOf(id); !ok || st != StateCompleted {
			t.Fatalf("session %d state %v", id, st)
		}
		if !srv.records[id].sess.Finished() {
			t.Fatalf("session %d not finished", id)
		}
	}
	// Zero lost reports: 4 sessions × 16 frames in GOPs of 4.
	if rep.FramesEncoded != 4*16 {
		t.Fatalf("frames encoded %d, want %d", rep.FramesEncoded, 4*16)
	}
	if rep.GOPReports != 4*4 {
		t.Fatalf("GOP reports %d, want %d", rep.GOPReports, 4*4)
	}
	// The late arrivals really were late: round 0 served only sessions
	// 0 and 1, and some later round served all four.
	if got := outs[0].AdmittedUsers; len(got) != 2 {
		t.Fatalf("round 0 admitted %v, want the two initial sessions", got)
	}
	sawFour := false
	for _, out := range outs {
		if len(out.AdmittedUsers) == 4 {
			sawFour = true
		}
	}
	if !sawFour {
		t.Fatal("no round served all four sessions — churn did not overlap")
	}
	if rep.Energy.Slots != rep.Rounds || rep.Energy.EnergyJ <= 0 {
		t.Fatalf("energy totals inconsistent: %+v over %d rounds", rep.Energy, rep.Rounds)
	}
}

// TestDriftEstimateError pins the stage-D1 estimate error of the one
// learning channel on a drifting host (driftModel): the mean relative error
// from round 3 on, where every key has been learned. The "measurements"
// are deterministic, so the figure is exact, not a timing race; a change
// to what or when the LUT learns moves it. Estimation prices, it never
// encodes: every session's digest chain equals the same clip encoded as a
// bare session on a LUT of its own.
func TestDriftEstimateError(t *testing.T) {
	_, outs, _ := churnService(t)
	const want = 0.482022653907
	got, tiles := MeanEstimateErr(outs, 3)
	if tiles == 0 || math.Abs(got-want) > 1e-9 {
		t.Fatalf("relative estimate error from round 3 = %.12f over %d tiles, want %.12f", got, tiles, want)
	}
	served := make(map[int][]uint64)
	for _, out := range outs {
		for _, id := range out.AdmittedUsers {
			served[id] = append(served[id], out.GOPs[id].Digest)
		}
	}
	for id, motion := range []medgen.MotionKind{medgen.Rotate, medgen.Pan, medgen.Sweep, medgen.Still} {
		cfg := testSessionConfig(ModeProposed)
		cfg.TimeModel = driftModel()
		sess, err := NewSession(id, testSource(t, medgen.Brain, motion, 16), cfg, workload.NewLUT())
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; !sess.Finished(); g++ {
			gop, err := sess.EncodeGOP()
			if err != nil {
				t.Fatal(err)
			}
			if g >= len(served[id]) || served[id][g] != gop.Digest {
				t.Fatalf("session %d GOP %d: served digests %x, bare %x", id, g, served[id], gop.Digest)
			}
		}
	}
}

// TestSettlePricesEachTileOnce: a served tile's modelled work is priced
// once per round — the LUT update, GOPReport.Work and the estimate error
// all read that one price — so a TimeModel that counts its calls, as
// driftModel does, advances once per served tile.
func TestSettlePricesEachTileOnce(t *testing.T) {
	srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	for _, motion := range []medgen.MotionKind{medgen.Rotate, medgen.Pan} {
		cfg := testSessionConfig(ModeProposed)
		cfg.TimeModel = func(ts codec.TileStats) time.Duration {
			calls.Add(1)
			return ts.Work(220)
		}
		if _, err := srv.Submit(testSource(t, medgen.Brain, motion, 8), cfg); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	var priced int64
	srv.cfg.OnRound = func(out *GOPOutcome) {
		tiles := 0
		for _, gop := range out.GOPs {
			for _, fr := range gop.Frames {
				tiles += len(fr.Tiles)
			}
		}
		if got := calls.Load() - priced; tiles == 0 || got != int64(tiles) {
			t.Errorf("round %d: %d TimeModel calls for %d served tiles, want one each", out.Round, got, tiles)
		}
		priced = calls.Load()
	}
	rep, err := srv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds == 0 {
		t.Fatal("no round served")
	}
}

// TestStoreDeterministicAcrossSchedulers: the LUT learns in the server's
// settle order, never in the encodes' completion order, so the concurrent
// serving loop leaves the same store, byte for byte, as the Sequential
// reference path.
func TestStoreDeterministicAcrossSchedulers(t *testing.T) {
	save := func(sequential bool) []byte {
		_, _, srv, _ := goldenService(t, sequential, false)
		var buf bytes.Buffer
		if err := srv.Store().Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq, conc := save(true), save(false)
	if !bytes.Equal(seq, conc) {
		t.Fatalf("concurrent serving saved a different store (%d bytes) than sequential (%d bytes)", len(conc), len(seq))
	}
}

// goldenService runs two deterministic medgen sequences through Run and
// returns per-session digest chains plus the report.
func goldenService(t *testing.T, sequential, keepBits bool) (*ServiceReport, []*GOPOutcome, *Server, map[int][]uint64) {
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
	}
	for _, sp := range specs {
		cfg := testSessionConfig(ModeProposed)
		cfg.Workers = 2
		cfg.KeepBitstreams = keepBits
		if _, err := srv.Submit(testSource(t, sp.class, sp.motion, 8), cfg); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	rep, outs := runKeeping(t, srv)
	digests := make(map[int][]uint64)
	for _, out := range outs {
		for _, id := range out.AdmittedUsers {
			digests[id] = append(digests[id], out.GOPs[id].Digest)
		}
	}
	return rep, outs, srv, digests
}

// TestRunGoldenRegression locks the service loop's output down: digests
// are stable across runs, concurrent output is bit-identical to the
// Sequential reference mode, and the retained bitstreams decode back to
// exactly the quality the encoder reported.
func TestRunGoldenRegression(t *testing.T) {
	_, _, _, first := goldenService(t, false, false)
	_, _, _, second := goldenService(t, false, false)
	repSeq, _, _, seq := goldenService(t, true, false)

	if len(first) != 2 {
		t.Fatalf("digest chains for %d sessions, want 2", len(first))
	}
	for id, chain := range first {
		if len(chain) != 2 { // 8 frames / GOP 4
			t.Fatalf("session %d served %d GOPs, want 2", id, len(chain))
		}
		for g, d := range chain {
			if d == 0 {
				t.Fatalf("session %d GOP %d has empty digest", id, g)
			}
			if second[id][g] != d {
				t.Fatalf("session %d GOP %d digest unstable across runs: %x vs %x", id, g, d, second[id][g])
			}
			if seq[id][g] != d {
				t.Fatalf("session %d GOP %d: concurrent %x != sequential %x", id, g, d, seq[id][g])
			}
		}
	}
	if len(repSeq.Completed) != 2 {
		t.Fatalf("sequential service completed %v", repSeq.Completed)
	}

	// Decode round-trip on retained bitstreams: the decoder must
	// reconstruct exactly what the encoder measured, frame for frame.
	_, outs, srv, _ := goldenService(t, false, true)
	for _, rec := range srv.records {
		sess := rec.sess
		dec, err := codec.NewDecoder(sess.cfg.Codec)
		if err != nil {
			t.Fatal(err)
		}
		decoded := 0
		for _, out := range outs {
			gop := out.GOPs[sess.ID]
			if gop == nil {
				continue
			}
			for _, fr := range gop.Frames {
				if fr.Bitstream == nil {
					t.Fatalf("session %d frame %d: KeepBitstreams retained nothing", sess.ID, fr.Frame)
				}
				frame, err := dec.DecodeFrame(fr.Bitstream, gop.Grid)
				if err != nil {
					t.Fatalf("session %d frame %d: decode: %v", sess.ID, fr.Frame, err)
				}
				psnr, err := video.PSNR(frame.Y, sourceFrameOf(t, srv, sess.ID, fr.Frame).Y)
				if err != nil {
					t.Fatal(err)
				}
				if got := video.CapPSNR(psnr, 100); !closeTo(got, fr.PSNR, 1e-9) {
					t.Fatalf("session %d frame %d: decoded PSNR %.9f != reported %.9f — decoder out of sync",
						sess.ID, fr.Frame, got, fr.PSNR)
				}
				decoded++
			}
		}
		if decoded != 8 {
			t.Fatalf("session %d decoded %d frames, want 8", sess.ID, decoded)
		}
	}
}

// sourceFrameOf re-renders the deterministic source frame a session saw.
func sourceFrameOf(t *testing.T, srv *Server, id, n int) *video.Frame {
	t.Helper()
	return srv.records[id].sess.src.Frame(n)
}

func closeTo(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

// flatModel returns a constant-per-tile TimeModel, so a session's demand
// is its tile count × perTile — the magnitude each ladder scenario sizes
// its overload of the two-core platform with.
func flatModel(perTile time.Duration) func(codec.TileStats) time.Duration {
	return func(codec.TileStats) time.Duration { return perTile }
}

// twoCorePlatform shrinks the paper platform to force overload.
func twoCorePlatform() *mpsoc.Platform {
	p := mpsoc.XeonE5_2667V4()
	p.Cores = 2
	return p
}

// TestAdmissionLadderDegradesAndServes: under overload a newcomer walks
// the full ladder (uniform tiling, then QP offsets) in its arrival round,
// waits for capacity, and still completes once the platform frees up.
func TestAdmissionLadderDegradesAndServes(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Platform:  twoCorePlatform(),
		FPS:       24,
		Admission: AdmissionConfig{Enabled: true, MaxQueueRounds: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, motion := range []medgen.MotionKind{medgen.Rotate, medgen.Pan} {
		cfg := testSessionConfig(ModeProposed)
		cfg.TimeModel = flatModel(2500 * time.Microsecond)
		if _, err := srv.Submit(testSource(t, medgen.Brain, motion, 8), cfg); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	srv.Close()
	rep, outs := runKeeping(t, srv)
	if len(rep.Completed) != 2 || len(rep.Rejected) != 0 || len(rep.Failed) != 0 {
		t.Fatalf("completed %v rejected %v failed %v", rep.Completed, rep.Rejected, rep.Failed)
	}
	// The overloaded round refused session 1 and the ladder degraded it.
	if got := outs[0].RejectedUsers; len(got) != 1 || got[0] != 1 {
		t.Fatalf("round 0 rejected %v, want [1]", got)
	}
	victim := srv.records[1].sess
	if !victim.degraded {
		t.Fatal("ladder did not degrade the newcomer's tiling")
	}
	if victim.qpOffset == 0 {
		t.Fatal("ladder did not raise the newcomer's QP offset")
	}
	if srv.records[0].sess.degraded || srv.records[0].sess.qpOffset != 0 {
		t.Fatal("ladder degraded the admitted session too")
	}
	if rep.FramesEncoded != 2*8 {
		t.Fatalf("frames encoded %d, want %d", rep.FramesEncoded, 2*8)
	}
}

// TestAdmissionDeadlineRejectsStarvedSession: a session that cannot be
// admitted before its queue deadline departs as StateRejected and the
// service completes without it.
func TestAdmissionDeadlineRejectsStarvedSession(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Platform:  twoCorePlatform(),
		FPS:       24,
		Admission: AdmissionConfig{Enabled: true, MaxQueueRounds: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSessionConfig(ModeProposed)
	cfg.TimeModel = flatModel(2500 * time.Microsecond)
	if _, err := srv.Submit(testSource(t, medgen.Brain, medgen.Rotate, 8), cfg); err != nil {
		t.Fatal(err)
	}
	// The victim estimates from its own (cold, then oversized) class LUT
	// and can never fit two-at-a-time next to session 0.
	vcfg := testSessionConfig(ModeProposed)
	vcfg.TimeModel = flatModel(30 * time.Millisecond)
	if _, err := srv.Submit(testSource(t, medgen.Bone, medgen.Pan, 8), vcfg); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	rep, outs := runKeeping(t, srv)
	if fmt.Sprint(rep.Completed) != "[0]" || fmt.Sprint(rep.Rejected) != "[1]" {
		t.Fatalf("completed %v rejected %v", rep.Completed, rep.Rejected)
	}
	if st, _ := srv.StateOf(1); st != StateRejected {
		t.Fatalf("victim state %v, want rejected", st)
	}
	sawTimeout := false
	for _, out := range outs {
		for _, id := range out.TimedOut {
			if id == 1 {
				sawTimeout = true
			}
		}
		if g := out.GOPs[1]; g != nil {
			t.Fatal("rejected session has a GOP report")
		}
	}
	if !sawTimeout {
		t.Fatal("no round reported the victim's queue timeout")
	}
}

// TestRunSurvivesSessionFailure: one session's mid-service encode failure
// departs that session as StateFailed while the others stream on.
func TestRunSurvivesSessionFailure(t *testing.T) {
	srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(testSource(t, medgen.Brain, medgen.Rotate, 8), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	bad := &badAfterSource{FrameSource: testSource(t, medgen.Chest, medgen.Pan, 8), badFrom: 5}
	if _, err := srv.Submit(bad, testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	rep, err := srv.Run(context.Background())
	if err != nil {
		t.Fatalf("service stopped on a single session failure: %v", err)
	}
	if fmt.Sprint(rep.Completed) != "[0]" || fmt.Sprint(rep.Failed) != "[1]" {
		t.Fatalf("completed %v failed %v", rep.Completed, rep.Failed)
	}
	if rep.Errors[1] == nil {
		t.Fatal("failed session's error not reported")
	}
	if st, _ := srv.StateOf(1); st != StateFailed {
		t.Fatalf("state %v, want failed", st)
	}
}

// TestRunCancellation: a cancelled context stops the service promptly and
// returns the partial report with the context error.
func TestRunCancellation(t *testing.T) {
	srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(testSource(t, medgen.Brain, medgen.Rotate, 16), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.cfg.OnRound = func(out *GOPOutcome) {
		if out.Round == 0 {
			cancel()
		}
	}
	rep, err := srv.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Rounds != 1 {
		t.Fatalf("served %d rounds before noticing cancellation, want 1", rep.Rounds)
	}
}

// TestRunWaitsForLateArrivals: Run blocks on an empty open queue and picks
// up a session submitted from another goroutine, then exits on Close.
func TestRunWaitsForLateArrivals(t *testing.T) {
	srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		rep *ServiceReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := srv.Run(context.Background())
		done <- result{rep, err}
	}()
	waitRunning(srv)
	if _, err := srv.Submit(testSource(t, medgen.Brain, medgen.Rotate, 8), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if fmt.Sprint(r.rep.Completed) != "[0]" {
			t.Fatalf("completed %v", r.rep.Completed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after Close")
	}
}

// TestRunRefusesConcurrentRun: the single-serving-goroutine contract is
// enforced, not just documented.
func TestRunRefusesConcurrentRun(t *testing.T) {
	srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	// Idle Run holding the serving slot.
	go func() { _, _ = srv.Run(context.Background()) }()
	waitRunning(srv)
	if _, err := srv.Run(context.Background()); err == nil {
		t.Fatal("second concurrent Run was allowed")
	}
	srv.Close()
}

// waitRunning returns once a Run holds srv's serving slot.
func waitRunning(srv *Server) {
	for {
		srv.mu.Lock()
		running := srv.running
		srv.mu.Unlock()
		if running {
			return
		}
		runtime.Gosched()
	}
}

// TestSubmitAfterCloseFails pins the arrival queue contract.
func TestSubmitAfterCloseFails(t *testing.T) {
	srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := srv.Submit(testSource(t, medgen.Brain, medgen.Still, 4), testSessionConfig(ModeProposed)); err == nil {
		t.Fatal("Submit succeeded after Close")
	}
}

// TestReportHoldsNoPerRoundState: the report is a ledger, not a log.
// After a 200-round Run it counts all 200 rounds, yet nothing in it —
// checked field by field, so a future per-round field trips this too —
// holds more entries than there are sessions.
func TestReportHoldsNoPerRoundState(t *testing.T) {
	const rounds = 200
	srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	// One rendered frame, repeated, one frame per round: 200 cheap rounds.
	frame := testSource(t, medgen.Brain, medgen.Still, 1).Frame(0)
	frames := make([]*video.Frame, rounds)
	for i := range frames {
		frames[i] = frame
	}
	src, err := SourceFromSequence(&video.Sequence{Frames: frames, FPS: 24}, "brain")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSessionConfig(ModeProposed)
	cfg.Codec.GOPSize = 1
	if _, err := srv.Submit(src, cfg); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	rep, err := srv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != rounds || rep.GOPReports != rounds || rep.FramesEncoded != rounds || rep.Energy.Slots != rounds {
		t.Fatalf("ledger %+v, want %d rounds, GOP reports, frames and energy slots", rep, rounds)
	}
	v := reflect.ValueOf(*rep)
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Slice, reflect.Map:
			if f.Len() > rep.Submitted {
				t.Errorf("ServiceReport.%s holds %d entries after %d rounds of %d session(s) — per-round state",
					v.Type().Field(i).Name, f.Len(), rounds, rep.Submitted)
			}
		case reflect.Ptr, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("ServiceReport.%s is a %s — the ledger snapshot should be plain counters and per-session lists",
				v.Type().Field(i).Name, f.Kind())
		}
	}
}
