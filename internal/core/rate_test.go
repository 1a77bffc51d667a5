package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/medgen"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestHalveRateServesEveryOtherRound: a rate-halved session encodes a GOP,
// sits the next round out, and still finishes — the frame-rate rung trades
// latency, never frames.
func TestHalveRateServesEveryOtherRound(t *testing.T) {
	srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	full, err := srv.Submit(testSource(t, medgen.Brain, medgen.Rotate, 16), testSessionConfig(ModeProposed))
	if err != nil {
		t.Fatal(err)
	}
	halved, err := srv.Submit(testSource(t, medgen.Chest, medgen.Pan, 16), testSessionConfig(ModeProposed))
	if err != nil {
		t.Fatal(err)
	}
	halved.rateHalved = true
	if !halved.rateHalved || full.rateHalved {
		t.Fatal("HalveRate flag wrong")
	}
	srv.Close()
	rep, outs := runKeeping(t, srv)
	if len(rep.Completed) != 2 {
		t.Fatalf("completed %v, want both sessions", rep.Completed)
	}
	// 16 frames in GOPs of 4: the full-rate session is served on rounds
	// 0–3. The halved one alternates while it shares the platform (0, 2,
	// 4) and then — alone in the queue, where skipping would only idle
	// the platform — is served back-to-back for its last GOP (5).
	var fullRounds, halvedRounds []int
	for _, out := range outs {
		for _, id := range out.AdmittedUsers {
			if id == full.ID {
				fullRounds = append(fullRounds, out.Round)
			}
			if id == halved.ID {
				halvedRounds = append(halvedRounds, out.Round)
			}
		}
	}
	if len(fullRounds) != 4 {
		t.Fatalf("full-rate session served in rounds %v, want 4 rounds", fullRounds)
	}
	if fmt.Sprint(halvedRounds) != "[0 2 4 5]" {
		t.Fatalf("halved session served in rounds %v, want [0 2 4 5]", halvedRounds)
	}
	if rep.FramesEncoded != 2*16 {
		t.Fatalf("frames encoded %d, want %d — rate halving lost frames", rep.FramesEncoded, 2*16)
	}
}

// TestAdmissionLadderReachesRateRung: when tiling and QP degradation are
// not enough, the ladder halves the newcomer's frame rate before letting
// it queue with a deadline.
func TestAdmissionLadderReachesRateRung(t *testing.T) {
	p := mpsoc.XeonE5_2667V4()
	p.Cores = 2
	srv, err := NewServer(ServerConfig{
		Platform:  p,
		FPS:       24,
		Admission: AdmissionConfig{Enabled: true, MaxQueueRounds: 64},
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
	rep, err := srv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Completed) != 2 {
		t.Fatalf("completed %v rejected %v failed %v", rep.Completed, rep.Rejected, rep.Failed)
	}
	victim := srv.records[1].sess
	if !victim.degraded || victim.qpOffset == 0 {
		t.Fatal("ladder skipped the tiling/QP rungs")
	}
	if !victim.rateHalved {
		t.Fatal("ladder never reached the frame-rate rung")
	}
	if srv.records[0].sess.rateHalved {
		t.Fatal("ladder halved the admitted session's rate too")
	}
	if rep.FramesEncoded != 2*8 {
		t.Fatalf("frames encoded %d, want %d", rep.FramesEncoded, 2*8)
	}
}

// TestRateRungRecovery: with RecoverAfterRounds set, a rate-halved
// session returns to full rate once the platform has held spare headroom
// for it over K consecutive rounds — and stays at full rate afterwards
// while the platform remains clean (no flapping back and forth).
func TestRateRungRecovery(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Platform:  mpsoc.XeonE5_2667V4(),
		FPS:       24,
		Admission: AdmissionConfig{RecoverAfterRounds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(testSource(t, medgen.Brain, medgen.Rotate, 16), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	halved, err := srv.Submit(testSource(t, medgen.Chest, medgen.Pan, 16), testSessionConfig(ModeProposed))
	if err != nil {
		t.Fatal(err)
	}
	halved.rateHalved = true
	srv.Close()
	rep, outs := runKeeping(t, srv)
	if len(rep.Completed) != 2 {
		t.Fatalf("completed %v, want both", rep.Completed)
	}
	if halved.rateHalved {
		t.Fatal("session still rate-halved despite sustained headroom")
	}
	var halvedRounds, recoveredAt []int
	for _, out := range outs {
		for _, id := range out.AdmittedUsers {
			if id == halved.ID {
				halvedRounds = append(halvedRounds, out.Round)
			}
		}
		for _, id := range out.Recovered {
			if id == halved.ID {
				recoveredAt = append(recoveredAt, out.Round)
			}
		}
	}
	// Round 0 serves the session (headroom 1), round 1 it sits out
	// (headroom 2 → recovery), rounds 2–4 it serves every round again.
	if fmt.Sprint(recoveredAt) != "[1]" {
		t.Fatalf("recovered at rounds %v, want exactly [1]", recoveredAt)
	}
	if fmt.Sprint(halvedRounds) != "[0 2 3 4]" {
		t.Fatalf("halved session served in rounds %v, want [0 2 3 4]", halvedRounds)
	}
	if rep.FramesEncoded != 2*16 {
		t.Fatalf("frames %d, want %d — recovery lost frames", rep.FramesEncoded, 2*16)
	}
}

// TestRateRecoveryHysteresisCounter pins the no-flap rule at the unit
// level: headroom rounds must be consecutive — one dirty round (a
// rejection, or spare cores below the session's demand) resets the
// count, and recovery fires only at exactly K.
func TestRateRecoveryHysteresisCounter(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Platform:  mpsoc.XeonE5_2667V4(), // 32 cores
		FPS:       24,
		Admission: AdmissionConfig{RecoverAfterRounds: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Submit(testSource(t, medgen.Brain, medgen.Still, 8), testSessionConfig(ModeProposed))
	if err != nil {
		t.Fatal(err)
	}
	sess.rateHalved = true
	srv.records[0].lastDemand = 4

	clean := func() *GOPOutcome {
		return &GOPOutcome{Allocation: &sched.Result{CoresUsed: 8}} // spare 24 ≥ 4
	}
	step := func(out *GOPOutcome) []int {
		srv.recoverRates(out)
		return out.Recovered
	}

	if got := step(clean()); len(got) != 0 || srv.records[0].headroom != 1 {
		t.Fatalf("after 1 clean round: recovered %v headroom %d", got, srv.records[0].headroom)
	}
	step(clean())
	// A rejection resets the streak.
	if step(&GOPOutcome{Allocation: &sched.Result{CoresUsed: 8, Rejected: []int{99}}}); srv.records[0].headroom != 0 {
		t.Fatalf("rejection did not reset headroom: %d", srv.records[0].headroom)
	}
	step(clean())
	step(clean())
	// Spare cores below the session's demand also reset.
	if step(&GOPOutcome{Allocation: &sched.Result{CoresUsed: 30}}); srv.records[0].headroom != 0 {
		t.Fatalf("thin spare did not reset headroom: %d", srv.records[0].headroom)
	}
	step(clean())
	step(clean())
	if sess.rateHalved != true {
		t.Fatal("recovered before K consecutive headroom rounds — flapping")
	}
	if got := step(clean()); fmt.Sprint(got) != "[0]" || sess.rateHalved {
		t.Fatalf("third consecutive headroom round: recovered %v, halved %v", got, sess.rateHalved)
	}
	// Once restored, clean rounds are a no-op until the ladder halves the
	// session again.
	if got := step(clean()); len(got) != 0 {
		t.Fatalf("recovery fired again on a full-rate session: %v", got)
	}
}

// TestRateRecoveryHoldsUnderPressure: on a saturated platform even the
// most aggressive recovery setting (K=1) never un-halves — spare cores
// stay below the session's demand while it shares the platform, so the
// hysteresis keeps the rate down and the cadence stable.
func TestRateRecoveryHoldsUnderPressure(t *testing.T) {
	p := mpsoc.XeonE5_2667V4()
	p.Cores = 2
	srv, err := NewServer(ServerConfig{
		Platform:  p,
		FPS:       24,
		Admission: AdmissionConfig{Enabled: true, MaxQueueRounds: 64, RecoverAfterRounds: 1},
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
	rep, err := srv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Completed) != 2 {
		t.Fatalf("completed %v rejected %v failed %v", rep.Completed, rep.Rejected, rep.Failed)
	}
	victim := srv.records[1].sess
	if !victim.rateHalved {
		t.Fatal("saturated platform un-halved the victim — recovery flapped under pressure")
	}
	if rep.FramesEncoded != 2*8 {
		t.Fatalf("frames %d, want %d", rep.FramesEncoded, 2*8)
	}
}

// TestOnSessionStateHook: every lifecycle transition is delivered exactly
// once, in a per-session order that starts queued and ends terminal.
func TestOnSessionStateHook(t *testing.T) {
	type event struct {
		id    int
		state SessionState
		err   error
	}
	var mu sync.Mutex
	var events []event
	srv, err := NewServer(ServerConfig{
		Platform: mpsoc.XeonE5_2667V4(),
		FPS:      24,
		OnSessionState: func(id int, state SessionState, err error) {
			mu.Lock()
			events = append(events, event{id, state, err})
			mu.Unlock()
		},
	})
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
	if _, err := srv.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	perSession := map[int][]event{}
	for _, e := range events {
		perSession[e.id] = append(perSession[e.id], e)
	}
	if len(perSession) != 2 {
		t.Fatalf("events for %d sessions, want 2: %v", len(perSession), events)
	}
	for id, evs := range perSession {
		if len(evs) != 2 || evs[0].state != StateQueued {
			t.Fatalf("session %d events %v, want queued then terminal", id, evs)
		}
	}
	if got := perSession[0][1]; got.state != StateCompleted || got.err != nil {
		t.Fatalf("session 0 terminal event %v, want completed", got)
	}
	if got := perSession[1][1]; got.state != StateFailed || got.err == nil {
		t.Fatalf("session 1 terminal event %v, want failed with error", got)
	}
}

// TestAbortFailsPendingSessions: Abort departs every queued session as
// failed, reports them through the hook, and refuses to race a Run.
func TestAbortFailsPendingSessions(t *testing.T) {
	var mu sync.Mutex
	failed := map[int]error{}
	srv, err := NewServer(ServerConfig{
		Platform: mpsoc.XeonE5_2667V4(),
		FPS:      24,
		OnSessionState: func(id int, state SessionState, err error) {
			if state == StateFailed {
				mu.Lock()
				failed[id] = err
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := srv.Submit(testSource(t, medgen.Brain, medgen.Still, 4), testSessionConfig(ModeProposed)); err != nil {
			t.Fatal(err)
		}
	}
	cause := fmt.Errorf("shard dead")
	ids, err := srv.Abort(cause)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids) != "[0 1]" {
		t.Fatalf("aborted %v, want [0 1]", ids)
	}
	for id := 0; id < 2; id++ {
		if st, _ := srv.StateOf(id); st != StateFailed {
			t.Fatalf("session %d state %v after Abort", id, st)
		}
		if failed[id] == nil {
			t.Fatalf("session %d failure not reported through the hook", id)
		}
	}
	if n := srv.LoadReport().Sessions; n != 0 {
		t.Fatalf("LoadReport().Sessions = %d after Abort", n)
	}
	// Second Abort is a no-op.
	ids, err = srv.Abort(cause)
	if err != nil || len(ids) != 0 {
		t.Fatalf("second Abort = %v, %v", ids, err)
	}
}

// TestQPRungNeverNegative: the QP rung steps a session's offset up to
// maxQPOffset and never leaves it below 0, even from a negative offset a
// restored wire carried.
func TestQPRungNeverNegative(t *testing.T) {
	sess, err := NewSession(0, testSource(t, medgen.Brain, medgen.Rotate, 8), testSessionConfig(ModeProposed), workload.NewLUT())
	if err != nil {
		t.Fatal(err)
	}
	sess.qpOffset = -100
	rs := &roundSession{rec: &sessionRecord{sess: sess, rung: rungDegradedTiling}}
	var got []int
	for i := 0; i < 3; i++ {
		if _, _, err := (&Server{}).escalate(rs); err != nil {
			t.Fatal(err)
		}
		got = append(got, sess.qpOffset)
	}
	if fmt.Sprint(got) != "[0 4 8]" {
		t.Fatalf("QP offsets after each escalation = %v, want [0 4 8]", got)
	}
}
