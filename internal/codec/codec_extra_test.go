package codec

import (
	"testing"

	"repro/internal/medgen"
	"repro/internal/motion"
	"repro/internal/tiling"
	"repro/internal/video"
)

func TestSkipFastPathEngagesOnStaticContent(t *testing.T) {
	// A still, noise-free video: after the I-frame, inter prediction is
	// perfect and essentially every sub-block must take the skip path.
	cfg := medgen.Default()
	cfg.Width, cfg.Height = 128, 96
	cfg.Motion = medgen.Still
	cfg.NoiseSigma = -1
	cfg.Frames = 2
	g, err := medgen.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	grid := tiling.MustUniform(128, 96, 2, 2)
	if _, _, err := enc.EncodeFrame(g.Frame(0), grid, uniformParams(4, 32)); err != nil {
		t.Fatal(err)
	}
	stats, _, err := enc.EncodeFrame(g.Frame(1), grid, uniformParams(4, 32))
	if err != nil {
		t.Fatal(err)
	}
	totalSub := 0
	skipped := 0
	for _, ts := range stats.Tiles {
		skipped += ts.SkippedBlocks
		totalSub += (64 / 8) * (48 / 8) // 8×8 sub-blocks per 64×48 tile
	}
	// Textured regions carry larger reference quantization error and may
	// legitimately code a few coefficients; flat regions must all skip.
	if skipped < totalSub*3/4 {
		t.Fatalf("only %d/%d sub-blocks skipped on static content", skipped, totalSub)
	}
	// And the P-frame must be tiny.
	if stats.Bits > 4000 {
		t.Fatalf("static P-frame costs %d bits", stats.Bits)
	}
}

func TestSkipPathKeepsDecoderSync(t *testing.T) {
	// High QP forces the skip path on most of the frame; the decoder must
	// still match the encoder reconstruction exactly.
	seq := smallSequence(t, 4)
	cfg := smallConfig()
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	grid := tiling.MustUniform(128, 96, 2, 2)
	for i, f := range seq.Frames {
		stats, bs, err := enc.EncodeFrame(f, grid, uniformParams(4, 42))
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.DecodeFrame(bs, grid)
		if err != nil {
			t.Fatal(err)
		}
		if sad, _ := video.SAD(got.Y, enc.Reference().Y); sad != 0 {
			t.Fatalf("frame %d: skip-path drift (SAD %d)", i, sad)
		}
		if i > 0 {
			var skipped int
			for _, ts := range stats.Tiles {
				skipped += ts.SkippedBlocks
			}
			if skipped == 0 {
				t.Fatalf("frame %d: no skips at QP 42", i)
			}
		}
	}
}

func TestLongSequenceNoDrift(t *testing.T) {
	// 24 frames across three intra periods: encoder and decoder must stay
	// bit-exact throughout, and PSNR must not decay over the P-chain.
	seq := smallSequence(t, 24)
	cfg := smallConfig() // GOP 4, intra period 8
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	grid := tiling.MustUniform(128, 96, 2, 2)
	var firstP, lastP float64
	for i, f := range seq.Frames {
		stats, bs, err := enc.EncodeFrame(f, grid, uniformParams(4, 30))
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.DecodeFrame(bs, grid)
		if err != nil {
			t.Fatal(err)
		}
		if sad, _ := video.SAD(got.Y, enc.Reference().Y); sad != 0 {
			t.Fatalf("frame %d: drift (SAD %d)", i, sad)
		}
		if stats.Type == FrameP {
			if firstP == 0 {
				firstP = stats.PSNR
			}
			lastP = stats.PSNR
		}
	}
	if lastP < firstP-3 {
		t.Fatalf("PSNR decayed %.1f → %.1f over the sequence", firstP, lastP)
	}
}

func TestTileIndependence(t *testing.T) {
	// Decoding must treat tiles as fully independent: replacing all other
	// tiles' payloads with garbage must not change a tile's decoded
	// samples (within its own rectangle, same frame).
	seq := smallSequence(t, 1)
	cfg := smallConfig()
	enc, _ := NewEncoder(cfg)
	grid := tiling.MustUniform(128, 96, 2, 2)
	_, bs, err := enc.EncodeFrame(seq.Frames[0], grid, uniformParams(4, 30))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mustDecode(cfg, bs, grid)
	if err != nil {
		t.Fatal(err)
	}
	// Swap tile payloads 1..3 among themselves (they decode to garbage in
	// the wrong rectangles but tile 0 must be unaffected).
	swapped := &Bitstream{Type: bs.Type, Tiles: [][]byte{bs.Tiles[0], bs.Tiles[2], bs.Tiles[3], bs.Tiles[1]}}
	got, err := mustDecode(cfg, swapped, grid)
	if err != nil {
		// Cross-decoding alien payloads may legitimately error; tile
		// independence is then vacuously preserved for this input.
		t.Skip("swapped payloads did not decode; cannot compare")
	}
	t0 := grid.Tiles[0]
	a, err := ref.Y.SubPlane(t0.X, t0.Y, t0.W, t0.H)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Y.SubPlane(t0.X, t0.Y, t0.W, t0.H)
	if err != nil {
		t.Fatal(err)
	}
	if sad, _ := video.SAD(a, b); sad != 0 {
		t.Fatalf("tile 0 decode depends on other tiles (SAD %d)", sad)
	}
}

func mustDecode(cfg Config, bs *Bitstream, grid *tiling.Grid) (*video.Frame, error) {
	dec, err := NewDecoder(cfg)
	if err != nil {
		return nil, err
	}
	return dec.DecodeFrame(bs, grid)
}

func TestSearchTimeMeasured(t *testing.T) {
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
	if ts.SearchTime <= 0 {
		t.Fatal("P-frame tile has no measured search time")
	}
	if ts.SearchTime > ts.EncodeTime {
		t.Fatalf("search time %v exceeds encode time %v", ts.SearchTime, ts.EncodeTime)
	}
}

func TestDirectedSearchReducesEvals(t *testing.T) {
	// The GOP policy's promise at codec level: a directed OTS with the
	// right predictor evaluates far fewer candidates than TZ on the same
	// frame, at comparable quality.
	cfg := medgen.Default()
	cfg.Width, cfg.Height = 128, 96
	cfg.Motion = medgen.Pan
	cfg.PanVX, cfg.PanVY = 2, 0
	cfg.Frames = 2
	g, err := medgen.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(s motion.Searcher, window int, pred motion.MV) (*FrameStats, error) {
		enc, err := NewEncoder(smallConfig())
		if err != nil {
			return nil, err
		}
		grid := tiling.MustUniform(128, 96, 1, 1)
		params := []TileParams{{QP: 32, Searcher: s, Window: window, Pred: pred}}
		if _, _, err := enc.EncodeFrame(g.Frame(0), grid, params); err != nil {
			return nil, err
		}
		stats, _, err := enc.EncodeFrame(g.Frame(1), grid, params)
		return stats, err
	}
	tz, err := run(motion.TZSearch{}, 64, motion.MV{})
	if err != nil {
		t.Fatal(err)
	}
	ots, err := run(motion.OneAtATime{Direction: motion.MV{X: -2, Y: 0}}, 8, motion.MV{X: -2, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	if ots.SearchEvals*3 >= tz.SearchEvals {
		t.Fatalf("directed OTS evals %d not well below TZ %d", ots.SearchEvals, tz.SearchEvals)
	}
	if ots.PSNR < tz.PSNR-1 {
		t.Fatalf("directed OTS PSNR %.1f more than 1 dB below TZ %.1f", ots.PSNR, tz.PSNR)
	}
}

// raceEnabled is set under -race, where sync.Pool drops a random share of
// its Puts, so a pooled search may allocate.
var raceEnabled bool

func TestEncodeBlockAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	seq := smallSequence(t, 2)
	cfg := smallConfig()
	tile := tiling.MustUniform(cfg.Width, cfg.Height, 1, 1).Tiles[0]
	recon := video.NewFrame(cfg.Width, cfg.Height)
	p := TileParams{QP: 30, Searcher: motion.TZSearch{}, Window: 16}
	// A reference whose lower half is flat grey forces intra blocks there.
	ref := video.NewPlane(cfg.Width, cfg.Height)
	copy(ref.Pix, seq.Frames[0].Y.Pix)
	for i := ref.Stride * cfg.Height / 2; i < len(ref.Pix); i++ {
		ref.Pix[i] = 128
	}
	// The TZ searches reject candidates against the reference's sum table,
	// as every P-frame's do.
	sums := getSumTable(ref)
	defer putSumTable(sums)
	tc, err := newTileCoder(cfg, p, tile, seq.Frames[1].Y, recon.Y, ref, sums, FrameP)
	if err != nil {
		t.Fatal(err)
	}
	defer putTileCoder(tc)
	w := getBitWriter()
	defer putBitWriter(w)
	// Every block of the frame: inter, intra, skipped and coded residuals.
	encodeAll := func() {
		w.Reset()
		tc.lastMV = motion.MV{}
		for by := 0; by < cfg.Height; by += cfg.BlockSize {
			for bx := 0; bx < cfg.Width; bx += cfg.BlockSize {
				if err := tc.encodeBlock(w, bx, by, cfg.BlockSize, cfg.BlockSize); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	encodeAll() // warm the pools and the writer's buffer
	if n := testing.AllocsPerRun(20, encodeAll); n != 0 {
		t.Fatalf("%.1f allocations per P-frame of encodeBlock calls", n)
	}
	if st := tc.stats; st.InterBlocks == 0 || st.IntraBlocks == 0 || st.SkippedBlocks == 0 || st.SkippedBlocks == 4*(st.InterBlocks+st.IntraBlocks) {
		t.Fatalf("P-frame did not exercise inter, intra, skipped and coded blocks: %+v", st)
	}
}
