package core

import (
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/codec"
	"repro/internal/medgen"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/tiling"
	"repro/internal/workload"
)

// testSource builds a lazy FrameSource over a small synthetic video.
func testSource(t *testing.T, class medgen.Class, motion medgen.MotionKind, frames int) FrameSource {
	t.Helper()
	cfg := medgen.Default()
	cfg.Width, cfg.Height = 256, 192
	cfg.Class = class
	cfg.Motion = motion
	cfg.Frames = frames
	cfg.Seed = int64(class)*100 + int64(motion) + 1
	g, err := medgen.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := SourceFromGenerator(g, frames, cfg.FPS, class.String())
	if err != nil {
		t.Fatal(err)
	}
	return src
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
	min := s.Config().Constraints.MinPSNR
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

// TestBaselineProbeFollowsTimeModel: the capacity probe sizes [19]'s tiles
// through the session's TimeModel, like everything else that prices a
// tile. The model here reads tile area only, so the count is fixed by the
// 256×192 frame and the 41.7 ms slot — 3 µs/pixel is 3.5 slots, 6 µs/pixel
// 7.1 — whatever this host's stopwatch says (it used to read the raw
// EncodeTime, which on any fast host clamps to 2).
func TestBaselineProbeFollowsTimeModel(t *testing.T) {
	for _, tc := range []struct{ nsPerPixel, want int }{{3000, 4}, {6000, 8}} {
		cfg := testSessionConfig(ModeBaseline)
		cfg.BaselineTiles = 0 // derive from the probe
		cfg.TimeModel = func(ts codec.TileStats) time.Duration {
			return time.Duration(tc.nsPerPixel * ts.Tile.Area())
		}
		s, err := NewSession(0, testSource(t, medgen.Brain, medgen.Rotate, 8), cfg, workload.NewLUT())
		if err != nil {
			t.Fatal(err)
		}
		if got := s.probeBaselineTiles(); got != tc.want {
			t.Fatalf("%d ns/pixel: probe sized %d tiles, want %d", tc.nsPerPixel, got, tc.want)
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestEstimateThreadsUsesLUT(t *testing.T) {
	s := newTestSession(t, ModeProposed)
	if err := s.PrepareForEstimation(); err != nil {
		t.Fatal(err)
	}
	threads, err := s.EstimateThreads()
	if err != nil {
		t.Fatal(err)
	}
	if len(threads) != s.grid.NumTiles() {
		t.Fatalf("%d threads for %d tiles", len(threads), s.grid.NumTiles())
	}
	for _, th := range threads {
		if th.TimeFmax <= 0 {
			t.Fatalf("thread %+v has no estimate", th)
		}
		if th.User != 0 {
			t.Fatalf("thread user = %d", th.User)
		}
	}
	// After encoding a GOP the LUT holds real observations and estimates
	// should be in a realistic range (well under a second per tile).
	if _, err := s.EncodeGOP(); err != nil {
		t.Fatal(err)
	}
	threads2, err := s.EstimateThreads()
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range threads2 {
		if th.TimeFmax <= 0 || th.TimeFmax > time.Second {
			t.Fatalf("post-warmup estimate %v implausible", th.TimeFmax)
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
	if lut.Observations() == 0 {
		t.Fatal("shared brain LUT has no observations")
	}
	if len(srv.Store().Classes()) != 1 {
		t.Fatalf("classes = %v, want only brain", srv.Store().Classes())
	}
}

func TestServerBaselineAllocator(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Platform:  mpsoc.XeonE5_2667V4(),
		FPS:       24,
		Allocator: sched.AllocateBaseline,
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
		switch tile.Region {
		case tiling.RegionCorner:
			corner, foundCorner = tile, true
		case tiling.RegionCenter:
			center, foundCenter = tile, true
		}
	}
	if !foundCorner || !foundCenter {
		t.Fatal("grid missing corner or center tiles")
	}
	_ = corner
	_ = center
}
