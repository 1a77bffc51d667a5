package codec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/entropy"
	"repro/internal/motion"
	"repro/internal/tiling"
	"repro/internal/transform"
	"repro/internal/video"
)

// Encoder encodes a sequence frame by frame, maintaining the reconstructed
// reference picture. It is safe to encode the tiles of one frame from
// multiple goroutines (EncodeFrameContext); distinct frames must be
// encoded in order.
type Encoder struct {
	cfg Config
	// ref is the reconstructed previous frame (reference for P-frames).
	ref *video.Frame
	// frames counts encoded frames (display order).
	frames int
	// spare is the retired previous-previous reconstruction, recycled as
	// the next frame's reconstruction buffer (see takeRecon/retireRef).
	spare *video.Frame
	// refOwned reports whether ref was allocated by this encoder. Restore
	// installs externally-owned references that must never be recycled.
	refOwned bool
}

// NewEncoder validates cfg and returns an encoder.
func NewEncoder(cfg Config) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Encoder{cfg: cfg}, nil
}

// FramesEncoded returns the number of frames encoded so far.
func (e *Encoder) FramesEncoded() int { return e.frames }

// Reference returns the current reconstructed reference frame (nil before
// the first frame). Callers must not mutate it, and must not retain it
// across encode calls: the encoder recycles retired references as future
// reconstruction buffers, so a frame obtained here may be overwritten once
// two more frames have been encoded. Read it (or deep-copy via Clone)
// before the next encode.
func (e *Encoder) Reference() *video.Frame { return e.ref }

// Restore rewinds the encoder onto externally-saved state: the
// reconstructed reference picture and the display-order frame counter —
// the only state the encoder carries across frames. It is the receiving
// half of cross-process session migration (core.SessionWire): an encoder
// restored with the reference a remote peer saved continues the
// bitstream bit-identically. A nil ref is only legal before any frame
// has been encoded; the caller keeps ownership discipline (the encoder
// will never mutate ref, only replace it).
func (e *Encoder) Restore(ref *video.Frame, frames int) error {
	if frames < 0 {
		return fmt.Errorf("codec: negative frame counter %d", frames)
	}
	if ref == nil && frames > 0 {
		return fmt.Errorf("codec: %d frames encoded but no reference picture", frames)
	}
	if ref != nil {
		if ref.Width() != e.cfg.Width || ref.Height() != e.cfg.Height {
			return fmt.Errorf("codec: reference %dx%d, encoder configured %dx%d",
				ref.Width(), ref.Height(), e.cfg.Width, e.cfg.Height)
		}
	}
	if e.spare == ref {
		e.spare = nil // never hand an installed reference back out as scratch
	}
	e.ref = ref
	e.refOwned = false
	e.frames = frames
	return nil
}

// EncodeFrame encodes frame f over the given tile grid with per-tile
// parameters (len(params) must equal the tile count). The frame type is
// derived from the configured intra period and the encoder's frame counter.
// Tiles are processed sequentially; see EncodeFrameContext for the
// tile-parallel variant.
func (e *Encoder) EncodeFrame(f *video.Frame, grid *tiling.Grid, params []TileParams) (*FrameStats, *Bitstream, error) {
	return e.encode(context.Background(), f, grid, params, 1)
}

// EncodeFrameContext is EncodeFrame with tiles encoded by up to workers
// goroutines, and cancellation. Tiles are fully independent (separate
// bitstreams, disjoint reconstruction regions, read-only shared
// reference), which is exactly the property the paper's thread-level
// parallelization relies on. The worker budget is per call, so a serving
// loop can give each frame exactly the parallelism its session's core
// allocation planned. Tile dispatch stops at the first cancelled tile
// boundary and ctx's error is returned. On any error — cancellation
// included — the encoder's reference and frame counter are left untouched,
// so the same frame can be retried.
func (e *Encoder) EncodeFrameContext(ctx context.Context, f *video.Frame, grid *tiling.Grid, params []TileParams, workers int) (*FrameStats, *Bitstream, error) {
	if workers < 1 {
		workers = 1
	}
	return e.encode(ctx, f, grid, params, workers)
}

func (e *Encoder) encode(ctx context.Context, f *video.Frame, grid *tiling.Grid, params []TileParams, workers int) (*FrameStats, *Bitstream, error) {
	if f.Width() != e.cfg.Width || f.Height() != e.cfg.Height {
		return nil, nil, fmt.Errorf("codec: frame %dx%d, encoder configured %dx%d",
			f.Width(), f.Height(), e.cfg.Width, e.cfg.Height)
	}
	if err := grid.Validate(); err != nil {
		return nil, nil, err
	}
	if grid.FrameW != e.cfg.Width || grid.FrameH != e.cfg.Height {
		return nil, nil, fmt.Errorf("codec: grid %dx%d does not match frame %dx%d",
			grid.FrameW, grid.FrameH, e.cfg.Width, e.cfg.Height)
	}
	if len(params) != len(grid.Tiles) {
		return nil, nil, fmt.Errorf("codec: %d tile params for %d tiles", len(params), len(grid.Tiles))
	}
	ftype := e.cfg.frameTypeOf(e.frames)
	if ftype == FrameP && e.ref == nil {
		return nil, nil, fmt.Errorf("codec: P-frame %d without reference", e.frames)
	}
	for i, p := range params {
		if p.QP < transform.MinQP || p.QP > transform.MaxQP {
			return nil, nil, fmt.Errorf("codec: tile %d QP %d outside [%d, %d]", i, p.QP, transform.MinQP, transform.MaxQP)
		}
		if ftype == FrameP && p.Searcher == nil {
			return nil, nil, fmt.Errorf("codec: tile %d missing motion searcher for P-frame", i)
		}
	}

	// A P-frame's tiles share one sum table of the reference, which TZ
	// search builds on its first lookup; it goes back to the pool when
	// the frame ends, whatever the outcome.
	var refSums *motion.SumTable
	if ftype == FrameP {
		refSums = getSumTable(e.ref.Y)
		defer putSumTable(refSums)
	}
	recon := e.takeRecon()
	recon.Number = e.frames
	// fail recycles the reconstruction buffer before propagating an error:
	// a cancelled frame is retried (EncodeFrameContext contract), and the
	// retry should reuse the same scratch instead of allocating.
	fail := func(err error) (*FrameStats, *Bitstream, error) {
		e.spare = recon
		return nil, nil, err
	}
	stats := &FrameStats{Number: e.frames, Type: ftype, Tiles: make([]TileStats, len(grid.Tiles))}
	bs := &Bitstream{Type: ftype, Tiles: make([][]byte, len(grid.Tiles))}

	encodeOne := func(i int) error {
		ts, payload, err := e.encodeTile(f, recon, refSums, grid.Tiles[i], params[i], ftype)
		if err != nil {
			return err
		}
		stats.Tiles[i] = ts
		bs.Tiles[i] = payload
		return nil
	}

	if workers == 1 || len(grid.Tiles) == 1 {
		for i := range grid.Tiles {
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
			hostSlots <- struct{}{}
			err := encodeOne(i)
			<-hostSlots
			if err != nil {
				return fail(err)
			}
		}
	} else {
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			rerr error
		)
		sem := make(chan struct{}, workers)
		for i := range grid.Tiles {
			if err := ctx.Err(); err != nil {
				mu.Lock()
				if rerr == nil {
					rerr = err
				}
				mu.Unlock()
				break
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				hostSlots <- struct{}{}
				defer func() { <-hostSlots }()
				if err := encodeOne(i); err != nil {
					mu.Lock()
					if rerr == nil {
						rerr = err
					}
					mu.Unlock()
				}
			}(i)
		}
		wg.Wait()
		if rerr != nil {
			return fail(rerr)
		}
	}

	// Chroma pass-through reconstruction: this grayscale-domain codec codes
	// luma only; chroma is copied so decoded frames remain displayable.
	if err := recon.Cb.CopyFrom(f.Cb); err != nil {
		return fail(err)
	}
	if err := recon.Cr.CopyFrom(f.Cr); err != nil {
		return fail(err)
	}

	var sse int64
	for _, ts := range stats.Tiles {
		stats.Bits += ts.Bits
		stats.EncodeTime += ts.EncodeTime
		stats.SearchEvals += ts.SearchEvals
		sse += ts.SSE
	}
	stats.PSNR = psnrFromSSE(sse, e.cfg.Width*e.cfg.Height)

	e.retireRef(recon)
	e.frames++
	return stats, bs, nil
}

// hostSlots bounds the number of tile encodes running concurrently in the
// whole process to the host's parallelism. Without it, a multi-session
// server can oversubscribe the host (sessions × per-session workers ≫
// cores) and every tile's reported EncodeTime — wall clock, stamped after
// the slot is acquired — would include scheduler wait from other sessions.
// With the gate, a running tile effectively owns a core, so the reported
// time ≈ CPU time. No decision reads it (the LUT learns TileStats.Work).
var hostSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// psnrFromSSE converts a summed squared error over n samples to PSNR,
// capping lossless at 100 dB.
func psnrFromSSE(sse int64, n int) float64 {
	if sse == 0 {
		return 100
	}
	mse := float64(sse) / float64(n)
	return video.CapPSNR(10*math.Log10(255*255/mse), 100)
}

// encodeTile encodes one tile, writing its reconstruction into recon and
// returning its stats and bitstream payload. refSums is the reference's
// sum table on P-frames, nil on I-frames.
func (e *Encoder) encodeTile(src, recon *video.Frame, refSums *motion.SumTable, tile tiling.Tile, p TileParams, ftype FrameType) (TileStats, []byte, error) {
	start := time.Now()
	w := getBitWriter()
	defer putBitWriter(w)
	// Tile header: QP, so the payload is self-contained for the decoder.
	w.WriteUE(uint32(p.QP))

	tc, err := newTileCoder(e.cfg, p, tile, src.Y, recon.Y, refPlane(e.ref), refSums, ftype)
	if err != nil {
		return TileStats{}, nil, err
	}
	defer putTileCoder(tc)
	if err := tc.encode(w); err != nil {
		return TileStats{}, nil, err
	}

	ts := tc.stats
	ts.Tile = tile
	ts.QP = p.QP
	ts.Window = p.Window
	ts.Bits = w.Len()
	ts.PSNR = psnrFromSSE(ts.SSE, tile.Area())
	ts.EncodeTime = time.Since(start)
	return ts, w.Bytes(), nil
}

func refPlane(f *video.Frame) *video.Plane {
	if f == nil {
		return nil
	}
	return f.Y
}

// tileCoder holds the per-tile encoding state shared by the block loop.
type tileCoder struct {
	cfg   Config
	p     TileParams
	tile  tiling.Tile
	src   *video.Plane // full-frame source luma
	recon *video.Plane // full-frame reconstruction luma (tile region written)
	ref   *video.Plane // full-frame reference luma (nil for I-frames)
	// refSums is the reference's sum table, shared by the frame's tiles
	// (nil for I-frames).
	refSums *motion.SumTable
	ftype   FrameType
	quant   *transform.Quantizer
	stats   TileStats
	// lastMV is the motion-vector predictor (previous coded inter block in
	// the tile, raster order), mirrored exactly by the decoder.
	lastMV motion.MV
	// mvSum accumulates inter MVs for MeanMV.
	mvSum motion.MV
	// Per-block scratch, sized once per tile (sizeScratch) and reused by
	// every block: prediction samples, intra candidate samples, transform
	// coefficients and residual. Each is fully overwritten before any read.
	pred   []uint8
	tmp    []uint8
	coeffs []int32
	res    []int32
}

// newTileCoder returns a pooled coder initialized for one tile. Release
// with putTileCoder when the tile is done.
func newTileCoder(cfg Config, p TileParams, tile tiling.Tile, src, recon, ref *video.Plane, refSums *motion.SumTable, ftype FrameType) (*tileCoder, error) {
	q, err := quantizerFor(cfg.TransformSize, p.QP, ftype == FrameI)
	if err != nil {
		return nil, err
	}
	t := tileCoderPool.Get().(*tileCoder)
	pred, tmp, coeffs, res := t.pred, t.tmp, t.coeffs, t.res
	*t = tileCoder{cfg: cfg, p: p, tile: tile, src: src, recon: recon, ref: ref, refSums: refSums, ftype: ftype, quant: q,
		pred: pred, tmp: tmp, coeffs: coeffs, res: res}
	t.sizeScratch()
	return t, nil
}

// encode runs the block loop over the tile in raster order.
func (t *tileCoder) encode(w *entropy.BitWriter) error {
	bsz := t.cfg.BlockSize
	for by := t.tile.Y; by < t.tile.Y+t.tile.H; by += bsz {
		for bx := t.tile.X; bx < t.tile.X+t.tile.W; bx += bsz {
			bw := min(bsz, t.tile.X+t.tile.W-bx)
			bh := min(bsz, t.tile.Y+t.tile.H-by)
			if err := t.encodeBlock(w, bx, by, bw, bh); err != nil {
				return err
			}
		}
	}
	if t.stats.InterBlocks > 0 {
		t.stats.MeanMV = motion.MV{
			X: roundDiv(t.mvSum.X, t.stats.InterBlocks),
			Y: roundDiv(t.mvSum.Y, t.stats.InterBlocks),
		}
	}
	return nil
}

// encodeBlock codes one bw×bh prediction block at (bx, by).
func (t *tileCoder) encodeBlock(w *entropy.BitWriter, bx, by, bw, bh int) error {
	pred := t.pred[:bw*bh]

	useInter := false
	var mv motion.MV
	var intraMode int
	if t.ftype == FrameP {
		blk := motion.Block{Cur: t.src, Ref: t.ref, X: bx, Y: by, W: bw, H: bh, RefSums: t.refSums}
		// Seed the search with the spatial predictor — the previous coded
		// block's vector, which is also the anchor of the MV-difference
		// entropy coding — falling back to the policy's GOP direction at
		// the start of a tile. On the coherent global motion of medical
		// video this is what lets small-pattern searches converge in a
		// handful of probes.
		mvPred := t.lastMV
		if mvPred == (motion.MV{}) {
			mvPred = t.p.Pred
		}
		searchStart := time.Now()
		res := t.p.Searcher.Search(blk, t.p.Window, mvPred)
		t.stats.SearchTime += time.Since(searchStart)
		t.stats.SearchEvals += res.Evals
		// Mode decision: inter wins unless intra predicts markedly better.
		// The small MV-rate bias keeps RD behaviour sane at high QP. When
		// inter prediction is already near-perfect (≤ ~1.5 grey levels per
		// pixel), skip the intra evaluation entirely — the standard early
		// termination that keeps motion estimation the dominant cost.
		interCost := res.Cost + int64(4*res.MV.AbsSum())
		if res.Cost <= int64(bw*bh*3/2) {
			useInter = true
			mv = res.MV
			interPredict(t.ref, bx, by, bw, bh, mv, pred)
		} else {
			var intraCost int64
			intraMode, intraCost = t.bestIntra(bx, by, bw, bh, pred)
			if interCost <= intraCost {
				useInter = true
				mv = res.MV
				interPredict(t.ref, bx, by, bw, bh, mv, pred)
			}
			// Otherwise pred already holds the intra prediction.
		}
		w.WriteBit(boolBit(useInter))
		if useInter {
			w.WriteSE(int32(mv.X - t.lastMV.X))
			w.WriteSE(int32(mv.Y - t.lastMV.Y))
			t.lastMV = mv
			t.stats.InterBlocks++
			t.mvSum = t.mvSum.Add(mv)
		} else {
			w.WriteUE(uint32(intraMode))
			t.stats.IntraBlocks++
		}
	} else {
		intraMode, _ := t.bestIntra(bx, by, bw, bh, pred)
		w.WriteUE(uint32(intraMode))
		t.stats.IntraBlocks++
	}

	return t.codeResidual(w, bx, by, bw, bh, pred)
}

// bestIntra evaluates the intra modes against the source and leaves the
// winning prediction in pred, returning the mode and its SAD cost.
func (t *tileCoder) bestIntra(bx, by, bw, bh int, pred []uint8) (int, int64) {
	bestMode, bestCost := intraDC, int64(1)<<62
	tmp := t.tmp[:bw*bh]
	for mode := 0; mode < numIntraModes; mode++ {
		if !t.intraAvailable(mode, bx, by) {
			continue
		}
		intraPredict(t.recon, t.tile, mode, bx, by, bw, bh, tmp)
		var cost int64
		for y := 0; y < bh; y++ {
			row := t.src.Pix[(by+y)*t.src.Stride+bx : (by+y)*t.src.Stride+bx+bw]
			for x := 0; x < bw; x++ {
				d := int(row[x]) - int(tmp[y*bw+x])
				if d < 0 {
					d = -d
				}
				cost += int64(d)
			}
		}
		// Mode bits bias: DC is cheapest in ue(v).
		cost += int64(2 * mode)
		if cost < bestCost {
			bestCost = cost
			bestMode = mode
			copy(pred, tmp)
		}
	}
	return bestMode, bestCost
}

// intraAvailable reports whether a mode's reference samples exist inside
// the tile (tiles are fully independent, so prediction never crosses the
// tile boundary).
func (t *tileCoder) intraAvailable(mode, bx, by int) bool {
	switch mode {
	case intraHorizontal:
		return bx > t.tile.X
	case intraVertical:
		return by > t.tile.Y
	default: // DC degrades gracefully to mid-gray with no neighbours
		return true
	}
}

// codeResidual transforms, quantizes, entropy-codes and reconstructs the
// residual of one block, updating SSE stats.
//
// Sub-blocks take an early-skip fast path when the residual is small
// relative to the quantization step (mean |residual| below Qstep/6, i.e.
// comfortably inside the quantizer's deadzone): the encoder emits the
// one-bit empty coefficient block without running the transform, exactly
// as if every level had quantized to zero — which is what happens to such
// residuals in the slow path in all but pathological basis alignments.
// The bitstream stays fully consistent either way (the decoder sees an
// ordinary empty block), so this is the standard encoder-side early-CBF
// decision, and it is what makes well-predicted low-texture tiles cheap —
// the content→CPU-time coupling the paper's workload allocation exploits.
func (t *tileCoder) codeResidual(w *entropy.BitWriter, bx, by, bw, bh int, pred []uint8) error {
	n := t.cfg.TransformSize
	zeroBound := skipSADThreshold(n, t.quant)
	coeffs := t.coeffs[:n*n]
	res := t.res[:n*n]
	for sy := 0; sy < bh; sy += n {
		for sx := 0; sx < bw; sx += n {
			vw := min(n, bw-sx)
			vh := min(n, bh-sy)
			// Gather residual, zero-padding outside the valid region.
			for i := range res {
				res[i] = 0
			}
			var sad int64
			for y := 0; y < vh; y++ {
				srow := t.src.Pix[(by+sy+y)*t.src.Stride+bx+sx : (by+sy+y)*t.src.Stride+bx+sx+vw]
				for x := 0; x < vw; x++ {
					d := int32(srow[x]) - int32(pred[(sy+y)*bw+sx+x])
					res[y*n+x] = d
					if d < 0 {
						d = -d
					}
					sad += int64(d)
				}
			}
			if sad < zeroBound {
				// Early skip: write the empty block and reconstruct the
				// prediction directly.
				w.WriteUE(0)
				for y := 0; y < vh; y++ {
					rrow := t.recon.Pix[(by+sy+y)*t.recon.Stride+bx+sx : (by+sy+y)*t.recon.Stride+bx+sx+vw]
					srow := t.src.Pix[(by+sy+y)*t.src.Stride+bx+sx : (by+sy+y)*t.src.Stride+bx+sx+vw]
					for x := 0; x < vw; x++ {
						v := pred[(sy+y)*bw+sx+x]
						rrow[x] = v
						d := int(srow[x]) - int(v)
						t.stats.SSE += int64(d * d)
					}
				}
				t.stats.SkippedBlocks++
				continue
			}
			if err := transform.Forward(n, res, coeffs); err != nil {
				return err
			}
			if err := t.quant.Quantize(coeffs, coeffs); err != nil {
				return err
			}
			if err := entropy.EncodeCoeffBlock(w, n, coeffs); err != nil {
				return err
			}
			if allZero(coeffs) {
				// Dequantize and Inverse map zero levels to a zero residual.
				clear(res)
			} else {
				if err := t.quant.Dequantize(coeffs, coeffs); err != nil {
					return err
				}
				if err := transform.Inverse(n, coeffs, res); err != nil {
					return err
				}
			}
			// Reconstruct and accumulate distortion over the valid region.
			for y := 0; y < vh; y++ {
				rrow := t.recon.Pix[(by+sy+y)*t.recon.Stride+bx+sx : (by+sy+y)*t.recon.Stride+bx+sx+vw]
				srow := t.src.Pix[(by+sy+y)*t.src.Stride+bx+sx : (by+sy+y)*t.src.Stride+bx+sx+vw]
				for x := 0; x < vw; x++ {
					v := video.ClampU8(int(pred[(sy+y)*bw+sx+x]) + int(res[y*n+x]))
					rrow[x] = v
					d := int(srow[x]) - int(v)
					t.stats.SSE += int64(d * d)
				}
			}
		}
	}
	return nil
}

// intraPredict fills pred for the given mode from reconstructed neighbours
// inside the tile. Shared by encoder and decoder.
func intraPredict(recon *video.Plane, tile tiling.Tile, mode, bx, by, bw, bh int, pred []uint8) {
	switch mode {
	case intraHorizontal:
		for y := 0; y < bh; y++ {
			v := recon.At(bx-1, by+y)
			for x := 0; x < bw; x++ {
				pred[y*bw+x] = v
			}
		}
	case intraVertical:
		top := recon.Pix[(by-1)*recon.Stride+bx : (by-1)*recon.Stride+bx+bw]
		for y := 0; y < bh; y++ {
			copy(pred[y*bw:(y+1)*bw], top)
		}
	default: // DC
		var sum, cnt int
		if by > tile.Y {
			row := recon.Pix[(by-1)*recon.Stride+bx : (by-1)*recon.Stride+bx+bw]
			for _, v := range row {
				sum += int(v)
			}
			cnt += bw
		}
		if bx > tile.X {
			for y := 0; y < bh; y++ {
				sum += int(recon.At(bx-1, by+y))
			}
			cnt += bh
		}
		dc := uint8(128)
		if cnt > 0 {
			dc = uint8((sum + cnt/2) / cnt)
		}
		for i := range pred[:bw*bh] {
			pred[i] = dc
		}
	}
}

// interPredict copies the motion-compensated reference block into pred.
// Shared by encoder and decoder.
func interPredict(ref *video.Plane, bx, by, bw, bh int, mv motion.MV, pred []uint8) {
	rx, ry := bx+mv.X, by+mv.Y
	for y := 0; y < bh; y++ {
		copy(pred[y*bw:(y+1)*bw], ref.Pix[(ry+y)*ref.Stride+rx:(ry+y)*ref.Stride+rx+bw])
	}
}

// skipSADThreshold is the early-skip bound for an n×n sub-block: mean
// |residual| below Qstep/6. It always dominates the provable all-zero
// bound (transform.Quantizer.ZeroSADBound), so provably-zero blocks are
// always skipped too.
func skipSADThreshold(n int, q *transform.Quantizer) int64 {
	heuristic := int64(transform.Qstep(q.QP()) * float64(n*n) / 6)
	if provable := q.ZeroSADBound(); provable > heuristic {
		return provable
	}
	return heuristic
}

// allZero reports whether every quantized level is zero, in which case the
// reconstructed residual is zero too: each dequantized coefficient rounds
// 0·Qstep to 0, and each inverse stage shifts (0 + round) down to 0.
func allZero(levels []int32) bool {
	for _, l := range levels {
		if l != 0 {
			return false
		}
	}
	return true
}

func boolBit(b bool) uint {
	if b {
		return 1
	}
	return 0
}

func roundDiv(a, n int) int {
	if n == 0 {
		return 0
	}
	if a >= 0 {
		return (a + n/2) / n
	}
	return -((-a + n/2) / n)
}
