package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/medgen"
	"repro/internal/workload"
)

// speccedTestSource gives a medgen test source a wire spec, standing in
// for the production binder in internal/dist.
type speccedTestSource struct {
	*medgen.Generator
}

func (s *speccedTestSource) Spec() (SourceSpec, error) {
	data, err := json.Marshal(s.Config())
	if err != nil {
		return SourceSpec{}, err
	}
	return SourceSpec{Kind: "medgen-test", Class: s.Class(), Data: data}, nil
}

// bindTestSource re-opens a spec on a fresh generator, as another process
// would.
func bindTestSource(spec SourceSpec) (FrameSource, error) {
	if spec.Kind != "medgen-test" {
		return nil, fmt.Errorf("unknown source kind %q", spec.Kind)
	}
	var cfg medgen.Config
	if err := json.Unmarshal(spec.Data, &cfg); err != nil {
		return nil, err
	}
	g, err := medgen.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return &speccedTestSource{g}, nil
}

// speccedSource builds a wire-capable test source.
func speccedSource(t *testing.T, class medgen.Class, motion medgen.MotionKind, frames int) FrameSource {
	t.Helper()
	return &speccedTestSource{testSource(t, class, motion, frames)}
}

// wireSnapshotOf wires one directly-driven session as ExportSessions would.
func wireSnapshotOf(t *testing.T, sess *Session) *SessionWire {
	t.Helper()
	snap := &SessionSnapshot{Session: sess, Handoff: Handoff{
		Class:      sess.src.Class(),
		DonorID:    sess.ID,
		Frame:      sess.frame,
		QPOffset:   sess.qpOffset,
		Degraded:   sess.degraded,
		RateHalved: sess.rateHalved,
	}}
	w, err := snap.wire()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSessionWireRoundTripBitIdentical: a session serialized to JSON at a
// GOP boundary, decoded in a "different process" (fresh source via the
// binder, fresh encoder via Restore) and resumed produces exactly the
// bitstream digests of the uninterrupted run — the cross-machine
// counterpart of TestMigrationRoundTripBitIdentical.
func TestSessionWireRoundTripBitIdentical(t *testing.T) {
	const frames = 16
	for _, mode := range []Mode{ModeProposed, ModeBaseline} {
		control, err := NewSession(0, speccedSource(t, medgen.Brain, medgen.Rotate, frames), testSessionConfig(mode), workload.NewLUT())
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for !control.Finished() {
			gop, err := control.EncodeGOP()
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, gop.Digest)
		}

		donor, err := NewSession(0, speccedSource(t, medgen.Brain, medgen.Rotate, frames), testSessionConfig(mode), workload.NewLUT())
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for i := 0; i < 2; i++ {
			gop, err := donor.EncodeGOP()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, gop.Digest)
		}
		wire := wireSnapshotOf(t, donor)
		blob, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		var decoded SessionWire
		if err := json.Unmarshal(blob, &decoded); err != nil {
			t.Fatal(err)
		}
		snap, err := decoded.Restore(bindTestSource)
		if err != nil {
			t.Fatal(err)
		}
		resumed := snap.Session
		if resumed.frame != donor.frame {
			t.Fatalf("mode %v: resumed at frame %d, donor stopped at %d", mode, resumed.frame, donor.frame)
		}
		for !resumed.Finished() {
			gop, err := resumed.EncodeGOP()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, gop.Digest)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("mode %v: wire round-trip digests %v, uninterrupted %v", mode, got, want)
		}
	}
}

// TestSessionWireThroughServerImport drives the full serving path: a
// checkpoint taken from a live server crosses the wire and is imported
// into a second server, which finishes the session with the digest chain
// of an unmigrated run.
func TestSessionWireThroughServerImport(t *testing.T) {
	const frames = 16
	control := newMigrationServer(t)
	if _, err := control.Submit(speccedSource(t, medgen.Chest, medgen.Pan, frames), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	controlOuts, err := control.ServeAll(32)
	if err != nil {
		t.Fatal(err)
	}
	want := gopDigests(controlOuts, 0)

	donor := newMigrationServer(t)
	if _, err := donor.Submit(speccedSource(t, medgen.Chest, medgen.Pan, frames), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for i := 0; i < 2; i++ {
		out, err := donor.ServeGOP()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, out.GOPs[0].Digest)
	}
	wires, err := donor.CheckpointSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(wires) != 1 {
		t.Fatalf("%d checkpoints, want 1", len(wires))
	}
	blob, err := json.Marshal(wires[0])
	if err != nil {
		t.Fatal(err)
	}
	var decoded SessionWire
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	snap, err := decoded.Restore(bindTestSource)
	if err != nil {
		t.Fatal(err)
	}
	target := newMigrationServer(t)
	sess, err := target.Import(snap)
	if err != nil {
		t.Fatal(err)
	}
	if n := target.Report().Imported; n != 1 {
		t.Fatalf("target imported %d sessions, want 1", n)
	}
	targetOuts, err := target.ServeAll(32)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, gopDigests(targetOuts, sess.ID)...)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("imported-continuation digests %v, control %v", got, want)
	}
}

// TestSessionWireDeterministic: the same session state encodes to the
// same bytes — the property the golden files (internal/dist) and
// content-addressed checkpoint dedup rely on.
func TestSessionWireDeterministic(t *testing.T) {
	build := func() []byte {
		sess, err := NewSession(0, speccedSource(t, medgen.Bone, medgen.Sweep, 8), testSessionConfig(ModeProposed), workload.NewLUT())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.EncodeGOP(); err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(wireSnapshotOf(t, sess))
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if a, b := build(), build(); !bytes.Equal(a, b) {
		t.Fatalf("identical states wired to different bytes (%d vs %d)", len(a), len(b))
	}
}

// TestSessionWireRejectsUnknownVersion pins the versioning rule: decoders
// refuse wire versions they do not know instead of guessing.
func TestSessionWireRejectsUnknownVersion(t *testing.T) {
	sess, err := NewSession(0, speccedSource(t, medgen.Brain, medgen.Still, 8), testSessionConfig(ModeProposed), workload.NewLUT())
	if err != nil {
		t.Fatal(err)
	}
	w := wireSnapshotOf(t, sess)
	w.Version = sessionWireVersion + 1
	if _, err := w.Restore(bindTestSource); err == nil {
		t.Fatal("accepted an unknown wire version")
	}
}

// TestWireRequiresSpeccedSource: a session over an in-memory source that
// cannot be respecified is an explicit error, never a silent partial
// encoding — and CheckpointSessions skips it rather than failing the
// checkpointable sessions around it.
func TestWireRequiresSpeccedSource(t *testing.T) {
	sess := newTestSession(t, ModeProposed) // plain, spec-less test source
	snap := &SessionSnapshot{Session: sess, Handoff: Handoff{Class: sess.src.Class()}}
	if _, err := snap.wire(); err == nil {
		t.Fatal("wired a session with an unrespecifiable source")
	}
	srv := newMigrationServer(t)
	if _, err := srv.Submit(testSource(t, medgen.Brain, medgen.Rotate, 8), testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	wires, err := srv.CheckpointSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(wires) != 0 {
		t.Fatalf("checkpointed %d spec-less sessions", len(wires))
	}
}

// TestSessionSnapshotFieldsCovered is the schema tripwire. The snapshot's
// carried state reaches the wire by construction — both embed the one
// Handoff — as long as the snapshot holds nothing beside the live session
// and that Handoff: a field added next to them would not survive
// cross-process migration, so the snapshot's shape is pinned here. The
// session's configuration travels wholesale: marshalling must not hit an
// unserializable field (a new func/chan field needs a json:"-" tag and a
// conscious decision, like TimeModel).
func TestSessionSnapshotFieldsCovered(t *testing.T) {
	typ := reflect.TypeOf(SessionSnapshot{})
	if typ.NumField() != 2 || typ.Field(0).Name != "Session" || typ.Field(1).Name != "Handoff" {
		t.Errorf("SessionSnapshot is %v, want {Session; Handoff}: carried state belongs in Handoff, which SessionWire embeds", typ)
	}
	if _, err := json.Marshal(DefaultSessionConfig()); err != nil {
		t.Fatalf("SessionConfig no longer marshals: %v", err)
	}
}

// bindGoldenSource is a bounded stand-in for dist's source binder (core cannot
// import dist): it accepts the "medgen" kind the wire golden carries,
// refuses geometry a fuzzed spec could blow up — so whatever
// FuzzSessionWireRestore finds is Restore's own — and binds like
// bindTestSource.
func bindGoldenSource(spec SourceSpec) (FrameSource, error) {
	var cfg medgen.Config
	if spec.Kind != "medgen" || json.Unmarshal(spec.Data, &cfg) != nil ||
		cfg.Width > 256 || cfg.Height > 256 || cfg.Frames > 64 {
		return nil, fmt.Errorf("source kind %q spec %s is beyond what the fuzz binds", spec.Kind, spec.Data)
	}
	spec.Kind = "medgen-test"
	return bindTestSource(spec)
}

// goldenWire decodes the v1 wire golden (internal/dist owns the file).
func goldenWire(t testing.TB) *SessionWire {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("..", "dist", "testdata", "session_wire_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var w SessionWire
	if err := json.Unmarshal(golden, &w); err != nil {
		t.Fatal(err)
	}
	return &w
}

// TestSessionWireRestoreBoundsConfig: a wire's configuration must not be
// able to size an allocation or a loop. Each case hung or exhausted memory
// before Restore's input checks — in Restore itself (the grid), or on the
// restored session's next frame (tiles, block, windows).
func TestSessionWireRestoreBoundsConfig(t *testing.T) {
	for name, mutate := range map[string]func(*SessionWire){
		"baseline grid sized by the wire's own geometry": func(w *SessionWire) {
			w.Config.Mode = ModeBaseline
			w.Config.Codec.Width, w.Config.Codec.Height = 30000, 30000
			w.BaselineNX, w.BaselineNY = 30000, 30000
		},
		"baseline tile count": func(w *SessionWire) {
			w.Config.Mode = ModeBaseline
			w.Config.BaselineTiles = 1 << 40
		},
		"block size":      func(w *SessionWire) { w.Config.Codec.BlockSize = 1 << 20 },
		"baseline window": func(w *SessionWire) { w.Config.BaselineWindow = 1 << 40 },
		"policy window":   func(w *SessionWire) { w.Config.Policy.MaxWindow = 1 << 40 },
	} {
		w := goldenWire(t)
		mutate(w)
		if _, err := w.Restore(bindGoldenSource); err == nil {
			t.Errorf("%s: hostile wire restored", name)
		}
	}
}

// FuzzSessionWireRestore feeds SessionWire.Restore hostile bytes. The
// contract of everything that parses a wire from outside the process: an
// error, never a panic, and no allocation the input's own length does not
// bound. A wire Restore accepts must be a session the server can carry on
// with: it wires again, and its next frame encodes (or is refused).
//
// Both seeds are the v1 wire golden with its 55 KB reference picture cut
// down — as shipped, the picture's base64 is 95% of the bytes the mutator
// draws from and every find costs a minute of minimization: one seed is
// the session before its first frame (no picture), the other the same
// session on a 64×48 source with a blank picture of matching size.
func FuzzSessionWireRestore(f *testing.F) {
	w := goldenWire(f)
	var src medgen.Config
	if err := json.Unmarshal(w.Source.Data, &src); err != nil {
		f.Fatal(err)
	}
	src.Width, src.Height = 64, 48
	w.Config.Retile.MinTileW, w.Config.Retile.MinTileH = 16, 16 // three tiles per dimension still fit
	var err error
	if w.Source.Data, err = json.Marshal(src); err != nil {
		f.Fatal(err)
	}
	blank := func(pw, ph int) *PlaneWire { return &PlaneWire{Width: pw, Height: ph, Pix: make([]byte, pw*ph)} }
	w.Encoder.Ref = &FrameWire{Number: w.Encoder.Ref.Number, Y: blank(64, 48), Cb: blank(32, 24), Cr: blank(32, 24)}
	for _, fresh := range []bool{false, true} {
		if fresh {
			w.Frame, w.Encoder = 0, EncoderWire{}
		}
		seed, err := json.Marshal(&w)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := w.Restore(bindGoldenSource); err != nil {
			f.Fatalf("seed (fresh=%v) does not restore: %v", fresh, err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w SessionWire
		if json.Unmarshal(data, &w) != nil {
			return
		}
		snap, err := w.Restore(bindGoldenSource)
		if err != nil {
			return
		}
		if _, err := snap.wire(); err != nil {
			t.Fatalf("restored session does not wire again: %v", err)
		}
		if !snap.Session.Finished() {
			_, _ = snap.Session.EncodeNextFrame() // may refuse; must not panic
		}
	})
}
