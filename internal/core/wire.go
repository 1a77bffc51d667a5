package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/tiling"
	"repro/internal/video"
	"repro/internal/workload"
)

// The wire format: the versioned JSON encoding of one migratable session,
// the seam migrate.go promised for cross-process migration. An in-process
// handoff moves the live *Session pointer; a cross-machine handoff cannot,
// so SessionWire names every piece of state that determines the bits a
// session will produce from its next GOP boundary on:
//
//   - the source specification (SourceSpec) — videos are re-bound, not
//     shipped: the receiver reconstructs the deterministic frame source
//     (e.g. a medgen generator config) instead of receiving raw frames;
//   - the session configuration (SessionConfig minus its func-typed
//     TimeModel, which cannot cross a process boundary and does not affect
//     encoded bits — only LUT bookkeeping; every node prices a nil model
//     alike, so LUTs merged across agents hold one currency);
//   - the encoder's cross-GOP state: the reconstructed reference frame
//     (raw pixels) and the display-order frame counter;
//   - the Handoff the in-process SessionSnapshot carries: the serving
//     cursor, the admission-ladder degradations and bookkeeping, and the
//     QoS identity.
//
// Everything else a session holds — tile grid, contents, per-tile QPs, the
// QP adapter, the motion policy — is per-GOP state that prepareGOP
// rebuilds deterministically at the boundary the snapshot was taken at, so
// it never needs to travel. A restored session continues bit-identically.
//
// Versioning rules: sessionWireVersion is bumped on any change that alters
// the meaning of existing fields or removes one; adding an optional field
// with a zero-value default is compatible and does not bump. Decoders
// reject versions they do not know (no silent best-effort).

// sessionWireVersion is the wire-format version stamped into every
// SessionWire (see the versioning rules above).
const sessionWireVersion = 1

// SourceSpec is a portable description of a FrameSource: a kind tag naming
// the binder that can rebuild it and an opaque, kind-specific JSON payload
// (for the medgen kind: the generator's Config). Sources are deterministic
// by construction, so respecifying one on another machine yields the same
// frames — the property cross-process migration's bit-identity rests on.
type SourceSpec struct {
	Kind  string          `json:"kind"`
	Class string          `json:"class"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// SpeccedSource is a FrameSource that can describe itself for the wire.
// Only sessions whose source implements it can be checkpointed across
// processes (an in-memory test sequence, for example, cannot).
type SpeccedSource interface {
	FrameSource
	Spec() (SourceSpec, error)
}

// SourceBinder rebuilds a FrameSource from its wire spec on the receiving
// side. internal/dist registers the medgen binder; tests install their
// own. A binder must fail on kinds it does not know.
type SourceBinder func(SourceSpec) (FrameSource, error)

// PlaneWire is one raw 8-bit sample plane, rows stored compactly
// (stride == width). encoding/json carries Pix as base64.
type PlaneWire struct {
	Width  int    `json:"w"`
	Height int    `json:"h"`
	Pix    []byte `json:"pix"`
}

// FrameWire is one raw YUV 4:2:0 frame.
type FrameWire struct {
	Number int        `json:"number"`
	Y      *PlaneWire `json:"y"`
	Cb     *PlaneWire `json:"cb"`
	Cr     *PlaneWire `json:"cr"`
}

// EncoderWire is the encoder's cross-GOP state: the reconstructed
// reference picture and the display-order frame counter. Ref is nil only
// before the first encoded frame.
type EncoderWire struct {
	Frames int        `json:"frames"`
	Ref    *FrameWire `json:"ref,omitempty"`
}

// SessionWire is the versioned JSON encoding of one SessionSnapshot — the
// cross-machine migration format. Field order is fixed (encoding/json
// emits struct fields in declaration order), so encoding is
// byte-deterministic for a given state; the embedded Handoff's fields
// follow Version in Handoff's own order.
type SessionWire struct {
	Version int `json:"version"`
	Handoff
	Source SourceSpec `json:"source"`
	// Config is the session's defaulted configuration. TimeModel is
	// excluded (json:"-"): the receiver prices with the default work model
	// (codec.TileStats.Work), which is the same on every node, and the
	// model never influences encoded bits.
	Config SessionConfig `json:"config"`
	// BaselineNX/NY pin a baseline-mode session's uniform grid so the
	// receiver restores the exact tiling the donor encoded with (0/0 when
	// no baseline grid exists).
	BaselineNX int         `json:"baseline_nx,omitempty"`
	BaselineNY int         `json:"baseline_ny,omitempty"`
	Encoder    EncoderWire `json:"encoder"`
}

// wirePlane flattens a plane to compact rows.
func wirePlane(p *video.Plane) *PlaneWire {
	w := &PlaneWire{Width: p.W, Height: p.H, Pix: make([]byte, 0, p.W*p.H)}
	for y := 0; y < p.H; y++ {
		w.Pix = append(w.Pix, p.Row(y)...)
	}
	return w
}

// restorePlane rebuilds a plane from its wire form.
func restorePlane(w *PlaneWire) (*video.Plane, error) {
	if w == nil {
		return nil, fmt.Errorf("core: missing plane in wire frame")
	}
	if w.Width <= 0 || w.Height <= 0 || len(w.Pix) != w.Width*w.Height {
		return nil, fmt.Errorf("core: wire plane %dx%d with %d samples", w.Width, w.Height, len(w.Pix))
	}
	p := video.NewPlane(w.Width, w.Height)
	copy(p.Pix, w.Pix)
	return p, nil
}

// wireFrame flattens a frame.
func wireFrame(f *video.Frame) *FrameWire {
	return &FrameWire{Number: f.Number, Y: wirePlane(f.Y), Cb: wirePlane(f.Cb), Cr: wirePlane(f.Cr)}
}

// restoreFrame rebuilds a frame from its wire form.
func restoreFrame(w *FrameWire) (*video.Frame, error) {
	if w == nil {
		return nil, nil
	}
	y, err := restorePlane(w.Y)
	if err != nil {
		return nil, err
	}
	cb, err := restorePlane(w.Cb)
	if err != nil {
		return nil, err
	}
	cr, err := restorePlane(w.Cr)
	if err != nil {
		return nil, err
	}
	return &video.Frame{Y: y, Cb: cb, Cr: cr, Number: w.Number}, nil
}

// uniformDims recovers the nx×ny split of a uniform grid from its tile
// list (distinct X offsets in the first row, distinct Y offsets in the
// first column).
func uniformDims(g *tiling.Grid) (nx, ny int) {
	for _, t := range g.Tiles {
		if t.Y == 0 {
			nx++
		}
		if t.X == 0 {
			ny++
		}
	}
	return nx, ny
}

// wire encodes a snapshot for the wire. The snapshot's session must be at
// a GOP boundary (migrate.go guarantees exported snapshots are) and its
// source must be respecifiable (SpeccedSource); anything else is an
// error, not a silent partial encoding. Wire does not mutate the session,
// so it also backs non-destructive checkpointing (CheckpointSessions).
func (snap *SessionSnapshot) wire() (*SessionWire, error) {
	if snap == nil || snap.Session == nil {
		return nil, fmt.Errorf("core: wire of nil session snapshot")
	}
	sess := snap.Session
	if !sess.atGOPBoundary() {
		return nil, fmt.Errorf("core: session %d mid-GOP (frame %d) — cannot wire", sess.ID, sess.frame)
	}
	specced, ok := sess.src.(SpeccedSource)
	if !ok {
		return nil, fmt.Errorf("core: session %d source %T is not respecifiable", sess.ID, sess.src)
	}
	spec, err := specced.Spec()
	if err != nil {
		return nil, fmt.Errorf("core: session %d: %w", sess.ID, err)
	}
	w := &SessionWire{
		Version: sessionWireVersion,
		Handoff: snap.Handoff,
		Source:  spec,
		Config:  sess.cfg,
		Encoder: EncoderWire{Frames: sess.enc.FramesEncoded()},
	}
	if ref := sess.enc.Reference(); ref != nil {
		w.Encoder.Ref = wireFrame(ref)
	}
	if sess.baselineGrid != nil {
		w.BaselineNX, w.BaselineNY = uniformDims(sess.baselineGrid)
	}
	return w, nil
}

// Restore rebuilds a live snapshot from the wire: the source is re-bound
// through bind, the session reconstructed with the encoder's reference
// state, the serving cursor and every admission-ladder degradation
// reapplied. The result is exactly what an in-process ExportSessions
// would have produced — hand it to Server.Import (or serve.Fleet.Import)
// and the session continues bit-identically at its GOP boundary. The
// session is bound to a throwaway LUT until Import re-binds it to the
// target's per-class store.
func (w *SessionWire) Restore(bind SourceBinder) (*SessionSnapshot, error) {
	if w == nil {
		return nil, fmt.Errorf("core: nil session wire")
	}
	if w.Version != sessionWireVersion {
		return nil, fmt.Errorf("core: session wire version %d, want %d", w.Version, sessionWireVersion)
	}
	if bind == nil {
		return nil, fmt.Errorf("core: nil source binder")
	}
	src, err := bind(w.Source)
	if err != nil {
		return nil, fmt.Errorf("core: re-binding source kind %q: %w", w.Source.Kind, err)
	}
	if src.Class() != w.Class {
		return nil, fmt.Errorf("core: re-bound source class %q, wire says %q", src.Class(), w.Class)
	}
	sess, err := NewSession(w.DonorID, src, w.Config, workload.NewLUT())
	if err != nil {
		return nil, err
	}
	ref, err := restoreFrame(w.Encoder.Ref)
	if err != nil {
		return nil, err
	}
	if err := sess.enc.Restore(ref, w.Encoder.Frames); err != nil {
		return nil, err
	}
	if w.Frame < 0 || w.Frame > src.Len() {
		return nil, fmt.Errorf("core: wire frame cursor %d outside video of %d frames", w.Frame, src.Len())
	}
	sess.frame = w.Frame
	sess.qpOffset = w.QPOffset
	sess.degraded = w.Degraded
	sess.rateHalved = w.RateHalved
	if w.BaselineNX > 0 && w.BaselineNY > 0 {
		// The source's geometry, not the wire's claim of it, bounds the grid.
		grid, err := tiling.Uniform(sess.cfg.Codec.Width, sess.cfg.Codec.Height, w.BaselineNX, w.BaselineNY)
		if err != nil {
			return nil, err
		}
		sess.baselineGrid = grid
	}
	if !sess.atGOPBoundary() {
		return nil, fmt.Errorf("core: wire frame cursor %d is mid-GOP", w.Frame)
	}
	return &SessionSnapshot{Session: sess, Handoff: w.Handoff}, nil
}

// CheckpointSessions wires every checkpointable queued session without
// disturbing it: sessions at a GOP boundary whose source is respecifiable
// (SpeccedSource) are encoded exactly as ExportSessions would, but stay
// queued and keep serving — the shard's crash-recovery heartbeat, not a
// migration. Sessions mid-GOP or with in-memory-only sources are skipped.
// Like ExportSession, it may be called while a Run is active only from
// the serving goroutine between rounds (the OnRound hook), where no
// encode is in flight; from a stopped server, any goroutine.
func (s *Server) CheckpointSessions() ([]*SessionWire, error) {
	s.mu.Lock()
	var snaps []*SessionSnapshot
	for id, rec := range s.records {
		if rec.state != StateQueued || !rec.sess.atGOPBoundary() {
			continue
		}
		if _, ok := rec.sess.src.(SpeccedSource); ok {
			snaps = append(snaps, s.snapshot(id))
		}
	}
	s.mu.Unlock()
	var wires []*SessionWire
	for _, snap := range snaps {
		w, err := snap.wire()
		if err != nil {
			return nil, err
		}
		wires = append(wires, w)
	}
	return wires, nil
}
