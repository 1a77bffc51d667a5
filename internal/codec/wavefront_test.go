package codec

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/medgen"
	"repro/internal/motion"
	"repro/internal/tiling"
	"repro/internal/video"
)

func wppParams(qp int) TileParams {
	return TileParams{QP: qp, Searcher: motion.TZSearch{}, Window: 16}
}

func TestWavefrontDecoderMatchesEncoder(t *testing.T) {
	seq := smallSequence(t, 5)
	cfg := smallConfig()
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	for i, f := range seq.Frames {
		_, bs, err := enc.EncodeFrameWavefront(f, wppParams(30), 4)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := dec.DecodeFrameWavefront(bs)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if sad, _ := video.SAD(got.Y, enc.Reference().Y); sad != 0 {
			t.Fatalf("frame %d: wavefront drift (SAD %d)", i, sad)
		}
	}
}

func TestWavefrontDeterministicAcrossWorkerCounts(t *testing.T) {
	seq := smallSequence(t, 3)
	cfg := smallConfig()
	var ref []*Bitstream
	for _, workers := range []int{1, 3, 8} {
		enc, _ := NewEncoder(cfg)
		var streams []*Bitstream
		for _, f := range seq.Frames {
			_, bs, err := enc.EncodeFrameWavefront(f, wppParams(30), workers)
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, bs)
		}
		if ref == nil {
			ref = streams
			continue
		}
		for i := range streams {
			for r := range streams[i].Tiles {
				if string(streams[i].Tiles[r]) != string(ref[i].Tiles[r]) {
					t.Fatalf("workers=%d frame %d row %d: bitstream differs", workers, i, r)
				}
			}
		}
	}
}

func TestWavefrontRowPayloadsPerRow(t *testing.T) {
	seq := smallSequence(t, 1)
	cfg := smallConfig() // 96 high, block 16 → 6 rows
	enc, _ := NewEncoder(cfg)
	stats, bs, err := enc.EncodeFrameWavefront(seq.Frames[0], wppParams(30), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs.Tiles) != 6 || len(stats.Tiles) != 6 {
		t.Fatalf("rows = %d/%d, want 6", len(bs.Tiles), len(stats.Tiles))
	}
	for r, ts := range stats.Tiles {
		if ts.Tile.Y != r*16 || ts.Tile.W != 128 {
			t.Fatalf("row %d geometry %v", r, ts.Tile.Rect)
		}
		if ts.Bits <= 0 {
			t.Fatalf("row %d has no bits", r)
		}
	}
}

func TestWavefrontQualityMatchesTiles(t *testing.T) {
	// WPP and a single-tile encode are different partitions of the same
	// machinery; their rate/quality must be in the same ballpark.
	seq := smallSequence(t, 2)
	cfg := smallConfig()
	encW, _ := NewEncoder(cfg)
	encT, _ := NewEncoder(cfg)
	grid := tiling.MustUniform(128, 96, 1, 1)
	var wppPSNR, tilePSNR float64
	var wppBits, tileBits int
	for _, f := range seq.Frames {
		sw, _, err := encW.EncodeFrameWavefront(f, wppParams(30), 2)
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := encT.EncodeFrame(f, grid, []TileParams{wppParams(30)})
		if err != nil {
			t.Fatal(err)
		}
		wppPSNR, tilePSNR = sw.PSNR, st.PSNR
		wppBits, tileBits = sw.Bits, st.Bits
	}
	if d := wppPSNR - tilePSNR; d < -1.5 || d > 1.5 {
		t.Fatalf("wavefront PSNR %.1f vs tile %.1f", wppPSNR, tilePSNR)
	}
	if wppBits > tileBits*3/2+1000 {
		t.Fatalf("wavefront bits %d vs tile %d", wppBits, tileBits)
	}
}

func TestWavefrontVsTilesParallelEfficiency(t *testing.T) {
	// The paper's Sec. II-C argument: wavefront dependencies limit
	// concurrency, tiles don't. Measure wall time at several workers on a
	// larger frame; tiles must parallelize at least as well as WPP.
	if runtime.NumCPU() < 4 {
		t.Skip("needs ≥4 CPUs for a meaningful comparison")
	}
	cfg := Config{Width: 640, Height: 480, FPS: 24, GOPSize: 8, IntraPeriod: 0, BlockSize: 16, TransformSize: 8}
	frames := benchFramesT(t, cfg.Width, cfg.Height)

	wall := func(encode func(enc *Encoder) error) time.Duration {
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Warm: I-frame.
		grid := tiling.MustUniform(cfg.Width, cfg.Height, 1, 1)
		if _, _, err := enc.EncodeFrame(frames[0], grid, []TileParams{wppParams(32)}); err != nil {
			t.Fatal(err)
		}
		best := time.Hour
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			if err := encode(enc); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	grid := tiling.MustUniform(cfg.Width, cfg.Height, 4, 4)
	params := make([]TileParams, 16)
	for i := range params {
		params[i] = wppParams(32)
	}
	tilesTime := wall(func(enc *Encoder) error {
		_, _, err := enc.EncodeFrameContext(context.Background(), frames[1], grid, params, 4)
		return err
	})
	wppTime := wall(func(enc *Encoder) error {
		_, _, err := enc.EncodeFrameWavefront(frames[1], wppParams(32), 4)
		return err
	})
	// Tolerate scheduling noise, but WPP must not beat tiles outright by a
	// meaningful margin — its staircase serialization is structural.
	if float64(wppTime) < float64(tilesTime)*0.8 {
		t.Fatalf("WPP (%v) substantially faster than tiles (%v) — dependency model broken", wppTime, tilesTime)
	}
	t.Logf("4 workers: tiles %v, wavefront %v", tilesTime, wppTime)
}

// benchFramesT renders two frames for the parallel-efficiency test.
func benchFramesT(t *testing.T, w, h int) []*video.Frame {
	t.Helper()
	cfg := medgen.Default()
	cfg.Width, cfg.Height = w, h
	cfg.Frames = 2
	g, err := medgen.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []*video.Frame{g.Frame(0), g.Frame(1)}
}
