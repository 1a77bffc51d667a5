package dist

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/medgen"
	"repro/internal/mpsoc"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSessionWire builds a fully deterministic mid-stream session
// checkpoint: fixed generator config, one GOP encoded, checkpointed at the
// boundary as session 3 with every ladder field the server keeps
// populated.
func goldenSessionWire(t *testing.T) *core.SessionWire {
	t.Helper()
	mc := medgen.Default()
	mc.Width, mc.Height = 192, 144
	mc.Frames = 8
	mc.Seed = 7
	mc.Class = medgen.Brain
	mc.Motion = medgen.Rotate
	src, err := NewMedgenSource(mc, "brain")
	if err != nil {
		t.Fatal(err)
	}
	scfg := core.DefaultSessionConfig()
	scfg.Codec.GOPSize = 4
	scfg.Codec.IntraPeriod = 8
	scfg.Retile.MinTileW, scfg.Retile.MinTileH = 48, 48
	sess, err := core.NewSession(3, src, scfg, workload.NewLUT())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.EncodeGOP(); err != nil {
		t.Fatal(err)
	}
	return checkpointAs(t, 3, &core.SessionSnapshot{Session: sess, Handoff: core.Handoff{
		Class:  src.Class(),
		Demand: 2,
		Rung:   1,
		Waited: 1,
	}})
}

// checkpointAs wires snap the way a serving shard does: imported into a
// server as its session id, then checkpointed. The sessions before it
// render from a bare generator, which has no wire spec, so the checkpoint
// skips them and holds snap alone.
func checkpointAs(tb testing.TB, id int, snap *core.SessionSnapshot) *core.SessionWire {
	tb.Helper()
	srv, err := core.NewServer(core.ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < id; i++ {
		gen, err := medgen.NewGenerator(testMedgenConfig(medgen.Brain, medgen.Rotate, 4))
		if err != nil {
			tb.Fatal(err)
		}
		sess, err := core.NewSession(i, gen, testSessionConfig(), workload.NewLUT())
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := srv.Import(&core.SessionSnapshot{Session: sess, Handoff: core.Handoff{Class: gen.Class()}}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := srv.Import(snap); err != nil {
		tb.Fatal(err)
	}
	wires, err := srv.CheckpointSessions()
	if err != nil {
		tb.Fatal(err)
	}
	if len(wires) != 1 || wires[0].DonorID != id {
		tb.Fatalf("checkpoint holds %d wires, want session %d alone", len(wires), id)
	}
	return wires[0]
}

// checkGolden compares got against the named golden file (-update
// rewrites it).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden file (%d bytes, want %d).\n"+
			"A changed wire encoding breaks cross-version migration: if the change is intentional, "+
			"bump the wire version where required and regenerate with -update.", name, len(got), len(want))
	}
}

// TestSessionWireGolden pins the session wire format byte-for-byte: the
// encoding is deterministic, the golden file decodes back into state
// that re-encodes to the same bytes, and any field added to SessionWire
// (or a type it embeds) without a conscious wire decision shows up as a
// golden drift.
func TestSessionWireGolden(t *testing.T) {
	wire := goldenSessionWire(t)
	got, err := json.MarshalIndent(wire, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	checkGolden(t, "session_wire_v1.json", got)

	// Byte-determinism: a second independent build encodes identically.
	again, err := json.MarshalIndent(goldenSessionWire(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(again, '\n')) {
		t.Fatal("session wire encoding is not deterministic")
	}

	// Decode-equality: the golden bytes restore (through the production
	// binder) and re-wire to the same bytes.
	var decoded core.SessionWire
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatal(err)
	}
	snap, err := decoded.Restore(bindSource)
	if err != nil {
		t.Fatal(err)
	}
	back, err := json.MarshalIndent(checkpointAs(t, decoded.DonorID, snap), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(back, '\n')) {
		t.Fatal("restore → re-wire did not reproduce the golden bytes")
	}
}

// TestSessionWireVersionPinned: bumping the wire version is a conscious
// act that must come with a fresh golden file.
func TestSessionWireVersionPinned(t *testing.T) {
	if v := goldenSessionWire(t).Version; v != 1 {
		t.Fatalf("a checkpoint writes wire version %d: add a session_wire_v%d.json golden and update this pin", v, v)
	}
}

// goldenSubmitRequest builds a fully deterministic tenant-tagged
// submission — the v2 front-door envelope.
func goldenSubmitRequest(t *testing.T) SubmitRequest {
	t.Helper()
	mc := medgen.Default()
	mc.Width, mc.Height = 192, 144
	mc.Frames = 8
	mc.Seed = 7
	mc.Class = medgen.Brain
	mc.Motion = medgen.Rotate
	src, err := NewMedgenSource(mc, "brain")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := src.Spec()
	if err != nil {
		t.Fatal(err)
	}
	scfg := core.DefaultSessionConfig()
	scfg.Codec.GOPSize = 4
	scfg.Codec.IntraPeriod = 8
	scfg.Retile.MinTileW, scfg.Retile.MinTileH = 48, 48
	return SubmitRequest{
		Version:  ProtocolVersion,
		Source:   spec,
		Config:   scfg,
		Tenant:   "er",
		Priority: 9,
	}
}

// TestSubmitRequestGolden pins the v2 submission envelope byte-for-byte:
// the tenant id and priority class must survive the wire exactly, and
// any field added to SubmitRequest (or a type it embeds) without a
// conscious wire decision shows up as a golden drift.
func TestSubmitRequestGolden(t *testing.T) {
	req := goldenSubmitRequest(t)
	got, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	checkGolden(t, "submit_request_v2.json", got)

	// Round-trip: the golden bytes decode into an identical request.
	var decoded SubmitRequest
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := json.MarshalIndent(decoded, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(back, '\n')) {
		t.Fatal("decode → re-encode did not reproduce the golden bytes")
	}
	if decoded.Tenant != "er" || decoded.Priority != 9 {
		t.Fatalf("QoS identity lost on the wire: tenant=%q priority=%d", decoded.Tenant, decoded.Priority)
	}

	// The zero QoS identity stays off the wire, so a default-tenant v2
	// submission is byte-identical to its v1 encoding (modulo version).
	req.Tenant, req.Priority = "", 0
	plain, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte(`"tenant"`)) || bytes.Contains(plain, []byte(`"priority"`)) {
		t.Fatal("zero-valued tenant/priority fields leaked into the encoding")
	}
}

// TestProtocolVersionPinned: bumping the master↔agent protocol version
// is a conscious act that must come with a fresh golden file for every
// versioned request shape.
func TestProtocolVersionPinned(t *testing.T) {
	if ProtocolVersion != 2 {
		t.Fatalf("ProtocolVersion = %d: add a submit_request_v%d.json golden and update this pin",
			ProtocolVersion, ProtocolVersion)
	}
}
