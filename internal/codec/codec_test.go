package codec

import (
	"context"
	"testing"

	"repro/internal/medgen"
	"repro/internal/motion"
	"repro/internal/tiling"
	"repro/internal/video"
)

// smallConfig is a fast test geometry.
func smallConfig() Config {
	return Config{Width: 128, Height: 96, FPS: 24, GOPSize: 4, IntraPeriod: 8, BlockSize: 16, TransformSize: 8}
}

// smallSequence renders a short noise-free medical clip at test geometry.
func smallSequence(t *testing.T, frames int) *video.Sequence {
	t.Helper()
	cfg := medgen.Default()
	cfg.Width, cfg.Height = 128, 96
	cfg.Frames = frames
	cfg.Motion = medgen.Pan
	cfg.PanVX, cfg.PanVY = 2, 1
	cfg.NoiseSigma = 1
	g, err := medgen.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g.Sequence()
}

// uniformParams builds one TileParams per tile.
func uniformParams(n, qp int) []TileParams {
	params := make([]TileParams, n)
	for i := range params {
		params[i] = TileParams{QP: qp, Searcher: motion.TZSearch{}, Window: 16}
	}
	return params
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.FPS = 0 },
		func(c *Config) { c.GOPSize = 0 },
		func(c *Config) { c.IntraPeriod = -1 },
		func(c *Config) { c.IntraPeriod = 13 }, // not multiple of GOP 8
		func(c *Config) { c.BlockSize = 12 },   // not multiple of 8
		func(c *Config) { c.TransformSize = 16 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestTypeOfSchedule(t *testing.T) {
	c := DefaultConfig() // intra period 48
	if c.frameTypeOf(0) != FrameI {
		t.Fatal("frame 0 must be I")
	}
	if c.frameTypeOf(1) != FrameP || c.frameTypeOf(47) != FrameP {
		t.Fatal("mid-period frames must be P")
	}
	if c.frameTypeOf(48) != FrameI || c.frameTypeOf(96) != FrameI {
		t.Fatal("intra refresh missing")
	}
	c.IntraPeriod = 0
	if c.frameTypeOf(48) != FrameP {
		t.Fatal("intra period 0 should never refresh")
	}
	if c.frameTypeOf(0) != FrameI {
		t.Fatal("frame 0 must be I even with period 0")
	}
}

func TestEncodeIntraFrameQuality(t *testing.T) {
	seq := smallSequence(t, 1)
	enc, err := NewEncoder(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	grid := tiling.MustUniform(128, 96, 2, 2)
	stats, bs, err := enc.EncodeFrame(seq.Frames[0], grid, uniformParams(4, 27))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Type != FrameI {
		t.Fatalf("type = %v", stats.Type)
	}
	if stats.PSNR < 35 {
		t.Fatalf("I-frame PSNR %.1f dB too low at QP 27", stats.PSNR)
	}
	if stats.Bits <= 0 || len(bs.Tiles) != 4 {
		t.Fatalf("bits %d, tiles %d", stats.Bits, len(bs.Tiles))
	}
	// The reference must now be the reconstruction.
	psnr, err := video.PSNR(enc.Reference().Y, seq.Frames[0].Y)
	if err != nil {
		t.Fatal(err)
	}
	if video.CapPSNR(psnr, 100) != stats.PSNR {
		t.Fatalf("reference PSNR %.2f != reported %.2f", psnr, stats.PSNR)
	}
}

func TestQPControlsRateAndQuality(t *testing.T) {
	seq := smallSequence(t, 1)
	type point struct {
		bits int
		psnr float64
	}
	var pts []point
	for _, qp := range []int{22, 32, 42} {
		enc, err := NewEncoder(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		grid := tiling.MustUniform(128, 96, 2, 2)
		stats, _, err := enc.EncodeFrame(seq.Frames[0], grid, uniformParams(4, qp))
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, point{stats.Bits, stats.PSNR})
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].bits >= pts[i-1].bits {
			t.Fatalf("bits not monotone decreasing with QP: %+v", pts)
		}
		if pts[i].psnr >= pts[i-1].psnr {
			t.Fatalf("PSNR not monotone decreasing with QP: %+v", pts)
		}
	}
}

func TestPFramesCheaperThanIFrames(t *testing.T) {
	seq := smallSequence(t, 4)
	enc, err := NewEncoder(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	grid := tiling.MustUniform(128, 96, 2, 2)
	var iBits, pBits int
	for i, f := range seq.Frames {
		stats, _, err := enc.EncodeFrame(f, grid, uniformParams(4, 32))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			iBits = stats.Bits
		} else {
			pBits += stats.Bits
		}
	}
	avgP := pBits / (len(seq.Frames) - 1)
	if avgP*2 >= iBits {
		t.Fatalf("P-frames (%d bits avg) not well below I-frame (%d bits): inter prediction broken", avgP, iBits)
	}
}

func TestDecoderMatchesEncoderReconstruction(t *testing.T) {
	seq := smallSequence(t, 6)
	cfg := smallConfig()
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid := tiling.MustUniform(128, 96, 2, 2)
	for i, f := range seq.Frames {
		_, bs, err := enc.EncodeFrame(f, grid, uniformParams(4, 30))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := dec.DecodeFrame(bs, grid)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		sad, err := video.SAD(got.Y, enc.Reference().Y)
		if err != nil {
			t.Fatal(err)
		}
		if sad != 0 {
			t.Fatalf("frame %d: decoder reconstruction differs from encoder (SAD %d) — drift", i, sad)
		}
	}
}

func TestDecoderMatchesAcrossTileShapes(t *testing.T) {
	seq := smallSequence(t, 3)
	cfg := smallConfig()
	// Non-uniform grid exercising partial blocks (width 72 → 16×4+8).
	grid := &tiling.Grid{FrameW: 128, FrameH: 96, Tiles: []tiling.Tile{
		{Rect: tiling.Rect{X: 0, Y: 0, W: 72, H: 40}},
		{Rect: tiling.Rect{X: 72, Y: 0, W: 56, H: 40}},
		{Rect: tiling.Rect{X: 0, Y: 40, W: 72, H: 56}},
		{Rect: tiling.Rect{X: 72, Y: 40, W: 56, H: 56}},
	}}
	if err := grid.Validate(); err != nil {
		t.Fatal(err)
	}
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	for i, f := range seq.Frames {
		_, bs, err := enc.EncodeFrame(f, grid, uniformParams(4, 28))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := dec.DecodeFrame(bs, grid)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if sad, _ := video.SAD(got.Y, enc.Reference().Y); sad != 0 {
			t.Fatalf("frame %d: drift on irregular grid (SAD %d)", i, sad)
		}
	}
}

func TestPerTileQPsAreIndependent(t *testing.T) {
	seq := smallSequence(t, 1)
	enc, _ := NewEncoder(smallConfig())
	grid := tiling.MustUniform(128, 96, 2, 1)
	params := uniformParams(2, 22)
	params[1].QP = 42
	stats, bs, err := enc.EncodeFrame(seq.Frames[0], grid, params)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tiles[0].Bits <= stats.Tiles[1].Bits {
		t.Fatalf("QP22 tile (%d bits) not larger than QP42 tile (%d bits)",
			stats.Tiles[0].Bits, stats.Tiles[1].Bits)
	}
	if stats.Tiles[0].PSNR <= stats.Tiles[1].PSNR {
		t.Fatalf("QP22 tile PSNR %.1f not above QP42 tile %.1f",
			stats.Tiles[0].PSNR, stats.Tiles[1].PSNR)
	}
	// Decoder must honor the per-tile QP carried in the tile header.
	dec, _ := NewDecoder(smallConfig())
	got, err := dec.DecodeFrame(bs, grid)
	if err != nil {
		t.Fatal(err)
	}
	if sad, _ := video.SAD(got.Y, enc.Reference().Y); sad != 0 {
		t.Fatal("per-tile QP decode drift")
	}
}

func TestParallelEncodeMatchesSequential(t *testing.T) {
	seq := smallSequence(t, 3)
	cfg := smallConfig()
	grid := tiling.MustUniform(128, 96, 2, 2)

	encSeq, _ := NewEncoder(cfg)
	encPar, _ := NewEncoder(cfg)
	for i, f := range seq.Frames {
		s1, b1, err := encSeq.EncodeFrame(f, grid, uniformParams(4, 30))
		if err != nil {
			t.Fatal(err)
		}
		s2, b2, err := encPar.EncodeFrameContext(context.Background(), f, grid, uniformParams(4, 30), 4)
		if err != nil {
			t.Fatal(err)
		}
		if s1.Bits != s2.Bits || s1.PSNR != s2.PSNR {
			t.Fatalf("frame %d: parallel stats differ: %d/%f vs %d/%f", i, s1.Bits, s1.PSNR, s2.Bits, s2.PSNR)
		}
		for k := range b1.Tiles {
			if string(b1.Tiles[k]) != string(b2.Tiles[k]) {
				t.Fatalf("frame %d tile %d: parallel bitstream differs", i, k)
			}
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	cfg := smallConfig()
	enc, _ := NewEncoder(cfg)
	seq := smallSequence(t, 1)
	grid := tiling.MustUniform(128, 96, 2, 2)

	// Wrong frame size.
	wrong := video.NewFrame(64, 64)
	if _, _, err := enc.EncodeFrame(wrong, tiling.MustUniform(64, 64, 1, 1), uniformParams(1, 30)); err == nil {
		t.Fatal("accepted wrong frame size")
	}
	// Wrong param count.
	if _, _, err := enc.EncodeFrame(seq.Frames[0], grid, uniformParams(3, 30)); err == nil {
		t.Fatal("accepted wrong param count")
	}
	// Bad QP.
	if _, _, err := enc.EncodeFrame(seq.Frames[0], grid, uniformParams(4, 99)); err == nil {
		t.Fatal("accepted QP 99")
	}
	// Grid mismatch.
	if _, _, err := enc.EncodeFrame(seq.Frames[0], tiling.MustUniform(64, 64, 2, 2), uniformParams(4, 30)); err == nil {
		t.Fatal("accepted mismatched grid")
	}
	// Missing searcher on a P-frame.
	if _, _, err := enc.EncodeFrame(seq.Frames[0], grid, uniformParams(4, 30)); err != nil {
		t.Fatal(err) // I-frame: searcher unused
	}
	noSearch := make([]TileParams, 4)
	for i := range noSearch {
		noSearch[i] = TileParams{QP: 30}
	}
	if _, _, err := enc.EncodeFrame(seq.Frames[0], grid, noSearch); err == nil {
		t.Fatal("accepted P-frame without searcher")
	}
}

func TestDecoderValidation(t *testing.T) {
	cfg := smallConfig()
	dec, _ := NewDecoder(cfg)
	grid := tiling.MustUniform(128, 96, 2, 2)
	// P-frame without reference.
	if _, err := dec.DecodeFrame(&Bitstream{Type: FrameP, Tiles: make([][]byte, 4)}, grid); err == nil {
		t.Fatal("accepted P-frame without reference")
	}
	// Tile count mismatch.
	if _, err := dec.DecodeFrame(&Bitstream{Type: FrameI, Tiles: make([][]byte, 3)}, grid); err == nil {
		t.Fatal("accepted tile count mismatch")
	}
	// Truncated payload.
	bs := &Bitstream{Type: FrameI, Tiles: [][]byte{nil, nil, nil, nil}}
	if _, err := dec.DecodeFrame(bs, grid); err == nil {
		t.Fatal("accepted empty payloads")
	}
}

func TestCorruptBitstreamRejectedNotPanic(t *testing.T) {
	seq := smallSequence(t, 1)
	cfg := smallConfig()
	enc, _ := NewEncoder(cfg)
	grid := tiling.MustUniform(128, 96, 2, 2)
	_, bs, err := enc.EncodeFrame(seq.Frames[0], grid, uniformParams(4, 30))
	if err != nil {
		t.Fatal(err)
	}
	// Truncate each tile payload at various points; the decoder must
	// return an error (or decode successfully for trailing-padding-only
	// truncations), never panic.
	for _, frac := range []float64{0, 0.25, 0.5, 0.9} {
		dec, _ := NewDecoder(cfg)
		cut := make([][]byte, len(bs.Tiles))
		for i, p := range bs.Tiles {
			cut[i] = p[:int(float64(len(p))*frac)]
		}
		_, err := dec.DecodeFrame(&Bitstream{Type: FrameI, Tiles: cut}, grid)
		if err == nil && frac < 0.9 {
			t.Fatalf("decoder accepted %.0f%% truncated stream", frac*100)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	seq := smallSequence(t, 2)
	enc, _ := NewEncoder(smallConfig())
	grid := tiling.MustUniform(128, 96, 2, 2)
	for _, f := range seq.Frames {
		stats, bs, err := enc.EncodeFrame(f, grid, uniformParams(4, 30))
		if err != nil {
			t.Fatal(err)
		}
		var bits int
		var evals int
		for i, ts := range stats.Tiles {
			bits += ts.Bits
			evals += ts.SearchEvals
			if ts.Bits > len(bs.Tiles[i])*8 || ts.Bits <= 0 {
				t.Fatalf("tile %d bits %d vs payload %d bytes", i, ts.Bits, len(bs.Tiles[i]))
			}
			if ts.EncodeTime <= 0 {
				t.Fatalf("tile %d has no encode time", i)
			}
		}
		if bits != stats.Bits {
			t.Fatalf("frame bits %d != tile sum %d", stats.Bits, bits)
		}
		if evals != stats.SearchEvals {
			t.Fatalf("frame evals %d != tile sum %d", stats.SearchEvals, evals)
		}
		if stats.Type == FrameP && evals == 0 {
			t.Fatal("P-frame did no motion search")
		}
		if stats.Type == FrameI && evals != 0 {
			t.Fatal("I-frame did motion search")
		}
	}
}

func TestInterBlocksDominateOnPan(t *testing.T) {
	seq := smallSequence(t, 2)
	enc, _ := NewEncoder(smallConfig())
	grid := tiling.MustUniform(128, 96, 1, 1)
	if _, _, err := enc.EncodeFrame(seq.Frames[0], grid, uniformParams(1, 30)); err != nil {
		t.Fatal(err)
	}
	stats, _, err := enc.EncodeFrame(seq.Frames[1], grid, uniformParams(1, 30))
	if err != nil {
		t.Fatal(err)
	}
	ts := stats.Tiles[0]
	if ts.InterBlocks <= ts.IntraBlocks {
		t.Fatalf("pan content chose inter %d vs intra %d — mode decision broken", ts.InterBlocks, ts.IntraBlocks)
	}
	// The mean MV should reflect the (−2,−1) pan (MV space).
	if ts.MeanMV.X > 0 || ts.MeanMV.Y > 0 {
		t.Fatalf("mean MV %v inconsistent with (+2,+1) pan", ts.MeanMV)
	}
}

func TestGOPHelpers(t *testing.T) {
	c := DefaultConfig()
	if c.FrameInGOP(0) != 0 || c.FrameInGOP(7) != 7 || c.FrameInGOP(8) != 0 || c.FrameInGOP(13) != 5 {
		t.Fatal("FrameInGOP")
	}
	if FrameI.String() != "I" || FrameP.String() != "P" {
		t.Fatal("FrameType strings")
	}
	s := FrameStats{Bits: 1000}
	if s.Kbps(24) != 24 {
		t.Fatalf("Kbps = %v", s.Kbps(24))
	}
}
