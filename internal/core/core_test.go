package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/codec"
	"repro/internal/medgen"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/tiling"
	"repro/internal/video"
	"repro/internal/workload"
)

// testGens holds one generator per study the package's tests play, so
// every session and rerun of a study shares its rendered frames.
var testGens sync.Map // medgen.Config → *medgen.Generator

// testSource returns the package's generator of a small synthetic video.
func testSource(t *testing.T, class medgen.Class, motion medgen.MotionKind, frames int) *medgen.Generator {
	t.Helper()
	cfg := medgen.Default()
	cfg.Width, cfg.Height = 256, 192
	cfg.Class = class
	cfg.Motion = motion
	cfg.Frames = frames
	cfg.Seed = int64(class)*100 + int64(motion) + 1
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

// testSessionConfig shrinks geometry-dependent parameters for 256×192.
func testSessionConfig(mode Mode) SessionConfig {
	cfg := DefaultSessionConfig()
	cfg.Mode = mode
	cfg.Codec.GOPSize = 4
	cfg.Codec.IntraPeriod = 8
	cfg.Retile.MinTileW, cfg.Retile.MinTileH = 48, 48
	cfg.BaselineTiles = 4
	return cfg
}

func newTestSession(t *testing.T, mode Mode) *Session {
	t.Helper()
	src := testSource(t, medgen.Brain, medgen.Rotate, 8)
	s, err := NewSession(0, src, testSessionConfig(mode), workload.NewLUT())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// EncodeNextFrame steps the session by one frame, so the wire and
// estimate-ahead tests can cut a GOP in the middle.
func (s *Session) EncodeNextFrame() (*FrameReport, error) {
	return s.encodeNextFrame(context.Background(), 0)
}

// sequenceSource serves frames a test built by hand, for exact pixel control.
type sequenceSource struct {
	seq   *video.Sequence
	class string
}

// SourceFromSequence wraps a test-built sequence as a FrameSource with the
// given body-part class label.
func SourceFromSequence(seq *video.Sequence, class string) (FrameSource, error) {
	if seq == nil || len(seq.Frames) == 0 {
		return nil, fmt.Errorf("core: empty sequence")
	}
	return &sequenceSource{seq: seq, class: class}, nil
}

func (s *sequenceSource) Frame(n int) *video.Frame { return s.seq.Frames[n] }
func (s *sequenceSource) Len() int                 { return len(s.seq.Frames) }
func (s *sequenceSource) FPS() float64             { return s.seq.FPS }
func (s *sequenceSource) Class() string            { return s.class }

func TestSourceFromSequenceValidation(t *testing.T) {
	if _, err := SourceFromSequence(nil, "x"); err == nil {
		t.Fatal("accepted nil sequence")
	}
}

func TestSessionValidation(t *testing.T) {
	src := testSource(t, medgen.Brain, medgen.Still, 4)
	if _, err := NewSession(0, nil, testSessionConfig(ModeProposed), workload.NewLUT()); err == nil {
		t.Fatal("accepted nil source")
	}
	if _, err := NewSession(0, src, testSessionConfig(ModeProposed), nil); err == nil {
		t.Fatal("accepted nil LUT")
	}
	bad := testSessionConfig(ModeProposed)
	bad.Retile.MinTileW = 200 // 3×200 > 256
	if _, err := NewSession(0, src, bad, workload.NewLUT()); err == nil {
		t.Fatal("accepted invalid retile config")
	}
}

func TestSessionEncodesWholeVideo(t *testing.T) {
	s := newTestSession(t, ModeProposed)
	var frames int
	for !s.Finished() {
		fr, err := s.EncodeNextFrame()
		if err != nil {
			t.Fatal(err)
		}
		if fr.Frame != frames {
			t.Fatalf("frame number %d, want %d", fr.Frame, frames)
		}
		if fr.Bits <= 0 || fr.PSNR <= 0 {
			t.Fatalf("frame %d: degenerate stats %+v", frames, fr)
		}
		frames++
	}
	if frames != 8 {
		t.Fatalf("encoded %d frames", frames)
	}
	if _, err := s.EncodeNextFrame(); err == nil {
		t.Fatal("encode after finish succeeded")
	}
}

func TestSessionMeetsQualityConstraint(t *testing.T) {
	s := newTestSession(t, ModeProposed)
	min := s.cfg.Constraints.MinPSNR
	for !s.Finished() {
		fr, err := s.EncodeNextFrame()
		if err != nil {
			t.Fatal(err)
		}
		// Allow a small undershoot while Algorithm 1 converges.
		if fr.PSNR < min-2 {
			t.Fatalf("frame %d PSNR %.1f violates constraint %.1f", fr.Frame, fr.PSNR, min)
		}
	}
}

func TestSessionGOPStructure(t *testing.T) {
	s := newTestSession(t, ModeProposed)
	gop0, err := s.EncodeGOP()
	if err != nil {
		t.Fatal(err)
	}
	if len(gop0.Frames) != 4 {
		t.Fatalf("GOP frames = %d", len(gop0.Frames))
	}
	if gop0.Frames[0].Type != codec.FrameI {
		t.Fatal("first frame not I")
	}
	for _, fr := range gop0.Frames[1:] {
		if fr.Type != codec.FrameP {
			t.Fatal("non-first frame not P")
		}
	}
	if gop0.Grid == nil || gop0.Grid.Validate() != nil {
		t.Fatal("GOP grid invalid")
	}
	if len(gop0.Contents) != gop0.Grid.NumTiles() {
		t.Fatal("contents do not match grid")
	}
	// Second GOP re-tiles (possibly to the same structure) and continues.
	gop1, err := s.EncodeGOP()
	if err != nil {
		t.Fatal(err)
	}
	if gop1.Index != 1 {
		t.Fatalf("GOP index = %d", gop1.Index)
	}
	if !s.Finished() {
		t.Fatal("8 frames should be done after 2 GOPs of 4")
	}
}

func TestProposedUsesContentAwareGrid(t *testing.T) {
	s := newTestSession(t, ModeProposed)
	if _, err := s.EncodeNextFrame(); err != nil {
		t.Fatal(err)
	}
	grid := s.grid
	// The content-aware grid must have heterogeneous tile sizes (grown
	// corners vs center tiles).
	sizes := make(map[int]bool)
	for _, tile := range grid.Tiles {
		sizes[tile.Area()] = true
	}
	if len(sizes) < 2 {
		t.Fatalf("content-aware grid has uniform tiles: %v", grid.Tiles)
	}
}

func TestBaselineUsesUniformGrid(t *testing.T) {
	s := newTestSession(t, ModeBaseline)
	if _, err := s.EncodeNextFrame(); err != nil {
		t.Fatal(err)
	}
	grid := s.grid
	if grid.NumTiles() != 4 {
		t.Fatalf("baseline tiles = %d, want BaselineTiles=4", grid.NumTiles())
	}
	// Uniform: all tiles within one sample of each other.
	for _, tile := range grid.Tiles[1:] {
		if absInt(tile.W-grid.Tiles[0].W) > 1 || absInt(tile.H-grid.Tiles[0].H) > 1 {
			t.Fatalf("baseline grid not uniform: %v", grid.Tiles)
		}
	}
}

// TestBaselineDefaultTiles: with no tile count configured, [19] runs two
// uniform tiles at any geometry.
func TestBaselineDefaultTiles(t *testing.T) {
	for _, geo := range [][2]int{{640, 480}, {320, 240}, {256, 192}} {
		vc := medgen.Default()
		vc.Width, vc.Height, vc.Frames = geo[0], geo[1], 2
		g, err := medgen.NewGenerator(vc)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultSessionConfig()
		cfg.Mode = ModeBaseline
		s, err := NewSession(0, g, cfg, workload.NewLUT())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.prepareForEstimation(); err != nil {
			t.Fatal(err)
		}
		if n := s.grid.NumTiles(); n != 2 {
			t.Fatalf("%dx%d: %d baseline tiles, want 2", geo[0], geo[1], n)
		}
		if a, b := s.grid.Tiles[0], s.grid.Tiles[1]; a.W != b.W || a.H != b.H {
			t.Fatalf("%dx%d: baseline grid not uniform: %v", geo[0], geo[1], s.grid.Tiles)
		}
	}
}

// TestNilTimeModelLearnsWork: without a TimeModel a session's LUT learns
// each tile's work counters at the fitted search weight, whatever the
// host's stopwatch read — every key estimates exactly the EWMA of its
// tiles' TileStats.Work(220) in frame order.
func TestNilTimeModelLearnsWork(t *testing.T) {
	for _, mode := range []Mode{ModeProposed, ModeBaseline} {
		lut := workload.NewLUT()
		s, err := NewSession(0, testSource(t, medgen.Brain, medgen.Rotate, 8), testSessionConfig(mode), lut)
		if err != nil {
			t.Fatal(err)
		}
		gop, err := s.EncodeGOP()
		if err != nil {
			t.Fatal(err)
		}
		tiles := make(map[workload.Key][]codec.TileStats)
		for _, fr := range gop.Frames {
			for i, ts := range fr.Tiles {
				k := tileKey(ts.Tile, gop.Contents[i], ts.QP, ts.Window)
				tiles[k] = append(tiles[k], ts)
			}
		}
		for k, ts := range tiles {
			ewma := float64(ts[0].Work(220))
			for _, tile := range ts[1:] {
				ewma += 0.5 * (float64(tile.Work(220)) - ewma)
			}
			est := map[workload.Key]time.Duration{k: 0}
			lut.EstimateInto(est)
			if want := time.Duration(ewma); est[k] != want {
				t.Errorf("%v %v over %d tiles: estimate %v, want the EWMA of its work %v (first EncodeTime %v)",
					mode, k, len(ts), est[k], want, ts[0].EncodeTime)
			}
		}
	}
}

// TestEstimationKeysMatchEncode: the keys stage D1 prices for a GOP's
// first frame are the keys that frame's encode feeds back to the LUT, under
// every pipeline variant. With DisableFastME the encode runs TZ at window
// 64, so an estimate at the GOP policy's window would price an entry the
// encode never observes.
func TestEstimationKeysMatchEncode(t *testing.T) {
	for _, v := range []struct {
		name   string
		mutate func(*SessionConfig)
	}{
		{"proposed", func(*SessionConfig) {}},
		{"baseline", func(c *SessionConfig) { c.Mode = ModeBaseline }},
		{"no re-tiling", func(c *SessionConfig) { c.DisableRetile = true }},
		{"no fast ME", func(c *SessionConfig) { c.DisableFastME = true }},
	} {
		cfg := testSessionConfig(ModeProposed)
		v.mutate(&cfg)
		s, err := NewSession(0, testSource(t, medgen.Brain, medgen.Rotate, 8), cfg, workload.NewLUT())
		if err != nil {
			t.Fatal(err)
		}
		for gop := 0; !s.Finished(); gop++ {
			if err := s.prepareForEstimation(); err != nil {
				t.Fatal(err)
			}
			estimated, err := s.appendEstimationKeys(nil)
			if err != nil {
				t.Fatal(err)
			}
			fr, err := s.EncodeNextFrame()
			if err != nil {
				t.Fatal(err)
			}
			var observed []workload.Key
			for i, ts := range fr.Tiles {
				observed = append(observed, tileKey(ts.Tile, s.contents[i], ts.QP, ts.Window))
			}
			if !reflect.DeepEqual(estimated, observed) {
				t.Errorf("%s GOP %d: estimated keys %v, encode observed %v", v.name, gop, estimated, observed)
			}
			for !s.Finished() && s.cfg.Codec.FrameInGOP(s.frame) != 0 {
				if _, err := s.EncodeNextFrame(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestEstimateThreadsUsesLUT drives the server's stage D1 — prepareKeys,
// then the batched resolveEstimates — on one session outside a round: one
// estimate per tile, i.e. per allocator thread.
func TestEstimateThreadsUsesLUT(t *testing.T) {
	srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	s, err := srv.Submit(testSource(t, medgen.Brain, medgen.Rotate, 8), testSessionConfig(ModeProposed))
	if err != nil {
		t.Fatal(err)
	}
	rs := &roundSession{rec: srv.records[0]}
	estimate := func() []time.Duration {
		t.Helper()
		if err := srv.prepareKeys(rs); err != nil {
			t.Fatal(err)
		}
		srv.resolveEstimates([]*roundSession{rs})
		return rs.estimates
	}
	est := estimate()
	if len(est) != s.grid.NumTiles() {
		t.Fatalf("%d estimates for %d tiles", len(est), s.grid.NumTiles())
	}
	for i, e := range est {
		if e <= 0 {
			t.Fatalf("tile %d has no estimate", i)
		}
	}
	// After encoding a GOP the LUT holds real observations and estimates
	// should be in a realistic range (well under a second per tile).
	if _, err := s.EncodeGOP(); err != nil {
		t.Fatal(err)
	}
	for _, e := range estimate() {
		if e <= 0 || e > time.Second {
			t.Fatalf("post-warmup estimate %v implausible", e)
		}
	}
}

func TestServerServesMultipleUsers(t *testing.T) {
	platform := mpsoc.XeonE5_2667V4()
	srv, err := NewServer(ServerConfig{Platform: platform, FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	classes := []medgen.Class{medgen.Brain, medgen.Chest, medgen.Bone}
	for i := 0; i < 3; i++ {
		src := testSource(t, classes[i], medgen.Rotate, 4)
		if _, err := srv.Submit(src, testSessionConfig(ModeProposed)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := srv.ServeGOP()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.AdmittedUsers) == 0 {
		t.Fatal("no users admitted on an empty 32-core platform")
	}
	if out.Energy == nil || out.Energy.EnergyJ <= 0 {
		t.Fatal("no energy accounting")
	}
	for _, id := range out.AdmittedUsers {
		if out.GOPs[id] == nil {
			t.Fatalf("admitted user %d has no GOP report", id)
		}
		if out.GOPs[id].MeanPSNR < 30 {
			t.Fatalf("user %d PSNR %.1f", id, out.GOPs[id].MeanPSNR)
		}
	}
}

func TestServerServeAllCompletes(t *testing.T) {
	srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(t, medgen.Brain, medgen.Pan, 8)
	if _, err := srv.Submit(src, testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	outs, err := srv.ServeAll(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 { // 8 frames / GOP 4
		t.Fatalf("%d rounds, want 2", len(outs))
	}
	if !srv.records[0].sess.Finished() {
		t.Fatal("session not finished")
	}
}

func TestServerSharesLUTAcrossSameClassSessions(t *testing.T) {
	srv, err := NewServer(ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	a := testSource(t, medgen.Brain, medgen.Rotate, 4)
	b := testSource(t, medgen.Brain, medgen.Pan, 4)
	if _, err := srv.Submit(a, testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(b, testSessionConfig(ModeProposed)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ServeGOP(); err != nil {
		t.Fatal(err)
	}
	lut := srv.Store().ForClass("brain")
	if len(lut.Keys()) == 0 {
		t.Fatal("shared brain LUT learned nothing")
	}
	if len(srv.Store().Classes()) != 1 {
		t.Fatalf("classes = %v, want only brain", srv.Store().Classes())
	}
}

func TestServerBaselineAllocator(t *testing.T) {
	baseline, _ := sched.Lookup(sched.NameBaseline)
	srv, err := NewServer(ServerConfig{
		Platform:  mpsoc.XeonE5_2667V4(),
		FPS:       24,
		Allocator: AllocatorFunc(baseline),
	})
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(t, medgen.Chest, medgen.Rotate, 4)
	if _, err := srv.Submit(src, testSessionConfig(ModeBaseline)); err != nil {
		t.Fatal(err)
	}
	out, err := srv.ServeGOP()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.AdmittedUsers) != 1 {
		t.Fatalf("admitted = %v", out.AdmittedUsers)
	}
	// One thread per core: cores used equals the baseline tile count.
	if out.Allocation.CoresUsed != 4 {
		t.Fatalf("cores used = %d, want 4", out.Allocation.CoresUsed)
	}
}

func TestTileContentsDriveQPs(t *testing.T) {
	// Corner (low-texture) tiles must get higher QPs than center tiles on
	// the first frame of a GOP — the heart of stage C.
	s := newTestSession(t, ModeProposed)
	if _, err := s.EncodeNextFrame(); err != nil {
		t.Fatal(err)
	}
	var lowTexQP, highTexQP []int
	for i, tc := range s.contents {
		switch tc.Texture {
		case analysis.TextureLow:
			lowTexQP = append(lowTexQP, s.qps[i])
		case analysis.TextureHigh:
			highTexQP = append(highTexQP, s.qps[i])
		}
	}
	if len(lowTexQP) == 0 || len(highTexQP) == 0 {
		t.Skip("content did not produce both texture classes at this geometry")
	}
	for _, lo := range lowTexQP {
		for _, hi := range highTexQP {
			if lo < hi {
				t.Fatalf("low-texture QP %d below high-texture QP %d", lo, hi)
			}
		}
	}
}

func TestRetileRegionsMatchContent(t *testing.T) {
	s := newTestSession(t, ModeProposed)
	if _, err := s.EncodeNextFrame(); err != nil {
		t.Fatal(err)
	}
	var corner, center tiling.Tile
	foundCorner, foundCenter := false, false
	for _, tile := range s.grid.Tiles {
		switch tile.Region.String() {
		case "corner":
			corner, foundCorner = tile, true
		case "center":
			center, foundCenter = tile, true
		}
	}
	if !foundCorner || !foundCenter {
		t.Fatal("grid missing corner or center tiles")
	}
	_ = corner
	_ = center
}
