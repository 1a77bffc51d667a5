package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/medgen"
	"repro/internal/mpsoc"
)

// newMigrationServer builds a plain test server.
func newMigrationServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// gopDigests collects one session's GOP digests in index order from a
// set of outcomes.
func gopDigests(outs []*GOPOutcome, id int) []uint64 {
	var digests []uint64
	for _, out := range outs {
		if gop := out.GOPs[id]; gop != nil {
			digests = append(digests, gop.Digest)
		}
	}
	return digests
}

// TestMigrationRoundTripBitIdentical is the core acceptance property: a
// session served partly on one server and — after a GOP-boundary
// export/import — partly on another produces exactly the frames and
// bitstream digests of the same session served on one server throughout.
func TestMigrationRoundTripBitIdentical(t *testing.T) {
	const frames = 16 // 4 GOPs of 4

	// Control: the whole video on one server.
	control := newMigrationServer(t)
	if _, err := control.Submit(testSource(t, medgen.Brain, medgen.Rotate, frames), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	controlOuts, err := control.ServeAll(16)
	if err != nil {
		t.Fatal(err)
	}
	want := gopDigests(controlOuts, 0)
	if len(want) != 4 {
		t.Fatalf("control served %d GOPs, want 4", len(want))
	}

	// Migrated: two GOP rounds on the donor, then export → import, then
	// the rest on the target.
	donor := newMigrationServer(t)
	if _, err := donor.Submit(testSource(t, medgen.Brain, medgen.Rotate, frames), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	var donorOuts []*GOPOutcome
	for i := 0; i < 2; i++ {
		out, err := donor.ServeGOP()
		if err != nil {
			t.Fatal(err)
		}
		donorOuts = append(donorOuts, out)
	}
	snaps, err := donor.ExportSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("exported %d sessions, want 1", len(snaps))
	}
	snap := snaps[0]
	if snap.Class != "brain" || snap.DonorID != 0 || snap.Frame != 8 {
		t.Fatalf("snapshot %+v, want class brain, donor id 0, frame 8", snap)
	}
	if st, ok := donor.StateOf(0); !ok || st != StateMigrated {
		t.Fatalf("donor state %v after export, want migrated", st)
	}
	if n := donor.LoadReport().Sessions; n != 0 {
		t.Fatalf("donor load %d after export", n)
	}
	if donor.records[0].sess != nil {
		t.Fatal("donor still holds the migrated session")
	}

	target := newMigrationServer(t)
	// Occupy an id on the target so the migrated session gets a fresh one.
	if _, err := target.Submit(testSource(t, medgen.Chest, medgen.Pan, 4), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	sess, err := target.Import(snap)
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID != 1 {
		t.Fatalf("imported session id %d, want fresh shard-local 1", sess.ID)
	}
	// The target's store now owns the class binding.
	if target.Store().ForClass("brain") == nil {
		t.Fatal("target store has no brain LUT")
	}
	targetOuts, err := target.ServeAll(16)
	if err != nil {
		t.Fatal(err)
	}
	got := append(gopDigests(donorOuts, 0), gopDigests(targetOuts, 1)...)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("migrated digest chain %v != control %v", got, want)
	}
	// Zero lost frames: both target sessions finish.
	if st, _ := target.StateOf(1); st != StateCompleted {
		t.Fatalf("migrated session state %v, want completed", st)
	}
}

// TestMigrationCarriesDegradationState: a session mid-degradation (QP
// offset, uniform tiling, halved rate, pending skip) migrates with its
// ladder state intact — the target neither resets nor re-applies it.
func TestMigrationCarriesDegradationState(t *testing.T) {
	donor := newMigrationServer(t)
	sess, err := donor.Submit(testSource(t, medgen.Chest, medgen.Sweep, 12), testSessionConfig(ModeProposed))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.degrade(); err != nil {
		t.Fatal(err)
	}
	sess.qpOffset = 8
	sess.rateHalved = true
	if _, err := donor.ServeGOP(); err != nil {
		t.Fatal(err)
	}

	snaps, err := donor.ExportSessions()
	if err != nil {
		t.Fatal(err)
	}
	snap := snaps[0]
	if !snap.Degraded || snap.QPOffset != 8 || !snap.RateHalved || !snap.SkipRound {
		t.Fatalf("snapshot lost ladder state: %+v", snap)
	}

	target := newMigrationServer(t)
	got, err := target.Import(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !got.degraded || got.qpOffset != 8 || !got.rateHalved {
		t.Fatal("imported session lost its degradations")
	}
	// The pending skip survives: the session sits out the target's first
	// round. A second full-rate session keeps the round from falling back
	// to serving the skipper.
	if _, err := target.Submit(testSource(t, medgen.Brain, medgen.Still, 12), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	out, err := target.ServeGOP()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range out.AdmittedUsers {
		if id == got.ID {
			t.Fatal("imported session served in the round it owed as a rate-halving skip")
		}
	}
	target.Close()
	rep, err := target.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Completed) != 2 || rep.Imported != 1 {
		t.Fatalf("report %+v, want both completed with one import", rep)
	}
}

// TestExportImportContract: the protocol's edges — export refuses to
// race a Run, import refuses mid-GOP and nil snapshots but accepts a
// closed server, and FailSession is the dead-letter path for an
// unplaceable snapshot.
func TestExportImportContract(t *testing.T) {
	srv := newMigrationServer(t)
	if _, err := srv.Import(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := srv.Submit(testSource(t, medgen.Brain, medgen.Rotate, 8), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}

	// Drain an idle Run via the GOP-boundary stop, then export.
	srv.Drain()
	if _, err := srv.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snaps, err := srv.ExportSessions()
	if err != nil || len(snaps) != 1 {
		t.Fatalf("export after drained Run: %v, %d snaps", err, len(snaps))
	}

	// Import onto a closed server succeeds: Close seals the queue against
	// new arrivals, not against relocations.
	target := newMigrationServer(t)
	target.Close()
	if _, err := target.Import(snaps[0]); err != nil {
		t.Fatalf("import refused by closed server: %v", err)
	}
	rep, err := target.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Completed) != 1 || rep.Imported != 1 {
		t.Fatalf("closed target did not serve the import: %+v", rep)
	}

	// FailSession: only queued/migrated records can be failed.
	other := newMigrationServer(t)
	if _, err := other.Submit(testSource(t, medgen.Chest, medgen.Pan, 4), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	if err := other.FailSession(5, fmt.Errorf("nope")); err == nil {
		t.Fatal("FailSession accepted an unknown id")
	}
	if err := other.FailSession(0, fmt.Errorf("unplaceable")); err != nil {
		t.Fatal(err)
	}
	if st, _ := other.StateOf(0); st != StateFailed {
		t.Fatalf("state %v after FailSession", st)
	}
	if err := other.FailSession(0, fmt.Errorf("again")); err == nil {
		t.Fatal("FailSession re-failed a terminal session")
	}
}

// TestExportSessionDuringRunBitIdentical exercises the Drain-less narrow
// path behind hot-shard rebalancing: while the donor's Run is serving two
// sessions, its OnRound hook exports one of them after the second round
// and a target server adopts it mid-service. The handed-off session's
// digest chain across both servers must equal the same session served
// solo, and no frame or GOP report may be lost on either side.
func TestExportSessionDuringRunBitIdentical(t *testing.T) {
	const frames = 16 // 4 GOPs of 4

	// Control: the victim's whole video on one server.
	control := newMigrationServer(t)
	if _, err := control.Submit(testSource(t, medgen.Chest, medgen.Pan, frames), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	controlOuts, err := control.ServeAll(16)
	if err != nil {
		t.Fatal(err)
	}
	want := gopDigests(controlOuts, 0)

	target := newMigrationServer(t)
	var donor *Server
	var donorOuts []*GOPOutcome
	var exported *SessionSnapshot
	donor, err = NewServer(ServerConfig{
		Platform: mpsoc.XeonE5_2667V4(),
		FPS:      24,
		OnRound: func(out *GOPOutcome) {
			donorOuts = append(donorOuts, out)
			if len(donorOuts) != 2 {
				return
			}
			// Round boundary on the serving goroutine: the one place a
			// single session may leave a live Run.
			snap, err := donor.ExportSession(1)
			if err != nil {
				t.Errorf("ExportSession(1): %v", err)
				return
			}
			exported = snap
			if _, err := target.Import(snap); err != nil {
				t.Errorf("Import: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.Submit(testSource(t, medgen.Brain, medgen.Rotate, frames), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	if _, err := donor.Submit(testSource(t, medgen.Chest, medgen.Pan, frames), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	donor.Close()
	donorRep, err := donor.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if exported == nil {
		t.Fatal("OnRound never exported the session")
	}
	if exported.Frame != 8 || exported.Class != "chest" {
		t.Fatalf("snapshot %+v, want chest at frame 8", exported)
	}
	if st, _ := donor.StateOf(1); st != StateMigrated {
		t.Fatalf("donor state %v, want migrated", st)
	}

	target.Close()
	targetRep, targetOuts := runKeeping(t, target)
	if len(targetRep.Completed) != 1 || targetRep.Imported != 1 {
		t.Fatalf("target report %+v, want the adopted session completed", targetRep)
	}
	if len(donorRep.Completed) != 1 || len(donorRep.Migrated) != 1 {
		t.Fatalf("donor report %+v, want one completed and one migrated", donorRep)
	}

	// Zero loss: the victim's GOPs split exactly across the two servers.
	got := gopDigests(donorOuts, 1)
	got = append(got, gopDigests(targetOuts, 0)...)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("handed-off digest chain differs from the solo run:\n got %v\nwant %v", got, want)
	}
	if frames+frames != donorRep.FramesEncoded+targetRep.FramesEncoded {
		t.Fatalf("frames %d+%d, want %d total", donorRep.FramesEncoded, targetRep.FramesEncoded, frames+frames)
	}
}

// TestExportSessionContract: only queued sessions at a GOP boundary are
// exportable, and bad ids are refused.
func TestExportSessionContract(t *testing.T) {
	srv := newMigrationServer(t)
	if _, err := srv.ExportSession(0); err == nil {
		t.Fatal("ExportSession accepted an unknown id")
	}
	if _, err := srv.Submit(testSource(t, medgen.Brain, medgen.Rotate, 8), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	snap, err := srv.ExportSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Frame != 0 || snap.DonorID != 0 {
		t.Fatalf("snapshot %+v, want frame 0 of donor 0", snap)
	}
	// The record is migrated now — a second export must refuse.
	if _, err := srv.ExportSession(0); err == nil {
		t.Fatal("ExportSession re-exported a migrated session")
	}
	// The orphaned snapshot dead-letters cleanly.
	if err := srv.FailSession(0, fmt.Errorf("unplaceable")); err != nil {
		t.Fatal(err)
	}
}

// TestFailSessionDeadLettersDuringRun: an exported (StateMigrated)
// record may be failed while the donor's Run is still serving — the
// rebalancer's dead-letter path for a snapshot no shard accepts — while
// failing a *queued* session mid-Run stays refused.
func TestFailSessionDeadLettersDuringRun(t *testing.T) {
	var srv *Server
	var hookErrs []error
	srv, err := NewServer(ServerConfig{
		Platform: mpsoc.XeonE5_2667V4(),
		FPS:      24,
		OnRound: func(out *GOPOutcome) {
			if out.Round != 0 {
				return
			}
			if err := srv.FailSession(1, fmt.Errorf("queued, must refuse")); err == nil {
				hookErrs = append(hookErrs, fmt.Errorf("FailSession accepted a queued session mid-Run"))
			}
			if _, err := srv.ExportSession(1); err != nil {
				hookErrs = append(hookErrs, err)
				return
			}
			// The snapshot found no home: dead-letter it without stopping
			// the loop.
			if err := srv.FailSession(1, fmt.Errorf("unplaceable")); err != nil {
				hookErrs = append(hookErrs, err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := srv.Submit(testSource(t, medgen.Brain, medgen.Rotate, 8), testSessionConfig(ModeProposed)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	rep, err := srv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, herr := range hookErrs {
		t.Error(herr)
	}
	if len(rep.Completed) != 1 || len(rep.Failed) != 1 {
		t.Fatalf("report %+v, want session 0 completed and session 1 dead-lettered", rep)
	}
	if st, _ := srv.StateOf(1); st != StateFailed {
		t.Fatalf("state %v, want failed", st)
	}
}

// TestMigrationCarriesTenantIdentity: a session's QoS identity — tenant
// and resolved priority class — survives export, the versioned wire
// encoding, and import, so a migrated emergency session keeps its
// weighted share and preemption rights on the target shard.
func TestMigrationCarriesTenantIdentity(t *testing.T) {
	donor := newMigrationServer(t)
	if _, err := donor.Submit(speccedSource(t, medgen.Brain, medgen.Rotate, 8),
		testSessionConfig(ModeProposed), SubmitOptions{Tenant: "er", Priority: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := donor.ServeGOP(); err != nil {
		t.Fatal(err)
	}

	snaps, err := donor.ExportSessions()
	if err != nil {
		t.Fatal(err)
	}
	snap := snaps[0]
	if snap.Tenant != "er" || snap.Priority != 9 {
		t.Fatalf("snapshot tenant %q priority %d, want er/9", snap.Tenant, snap.Priority)
	}

	// Across the wire: the JSON encoding carries the identity, and a
	// restore on the far side reconstructs it.
	w, err := snap.wire()
	if err != nil {
		t.Fatal(err)
	}
	if w.Tenant != "er" || w.Priority != 9 {
		t.Fatalf("wire tenant %q priority %d, want er/9", w.Tenant, w.Priority)
	}
	restored, err := w.Restore(bindTestSource)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Tenant != "er" || restored.Priority != 9 {
		t.Fatalf("restored tenant %q priority %d, want er/9", restored.Tenant, restored.Priority)
	}

	target := newMigrationServer(t)
	if _, err := target.Import(restored); err != nil {
		t.Fatal(err)
	}
	reSnaps, err := target.ExportSessions()
	if err != nil {
		t.Fatal(err)
	}
	if reSnaps[0].Tenant != "er" || reSnaps[0].Priority != 9 {
		t.Fatalf("re-export tenant %q priority %d, want er/9", reSnaps[0].Tenant, reSnaps[0].Priority)
	}
}

// TestMigrationKeepsSubmittedConfig: a session's configuration is what its
// submitter gave it — submitting, exporting and importing on another
// server leave its tile-worker budget alone, and the wire of the adopted
// session carries that budget on.
func TestMigrationKeepsSubmittedConfig(t *testing.T) {
	donor := newMigrationServer(t)
	cfg := testSessionConfig(ModeProposed)
	cfg.Workers = 3
	if _, err := donor.Submit(speccedSource(t, medgen.Brain, medgen.Rotate, 8), cfg); err != nil {
		t.Fatal(err)
	}
	snaps, err := donor.ExportSessions()
	if err != nil {
		t.Fatal(err)
	}
	target := newMigrationServer(t)
	sess, err := target.Import(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.cfg.Workers; got != 3 {
		t.Fatalf("adopted session has Workers %d, submitted 3", got)
	}
	wires, err := target.CheckpointSessions()
	if err != nil {
		t.Fatal(err)
	}
	if got := wires[0].Config.Workers; got != 3 {
		t.Fatalf("adopted session wires Workers %d, submitted 3", got)
	}
}
