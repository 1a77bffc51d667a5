package codec

import (
	"sync"

	"repro/internal/entropy"
	"repro/internal/motion"
	"repro/internal/transform"
	"repro/internal/video"
)

// This file holds the encode hot path's memory-reuse machinery. The
// steady-state GOP loop allocates nothing per block and (after warm-up)
// nothing per tile: bit writers, tile coders and reference sum tables come
// from process-wide sync.Pools, quantizers come from a precomputed
// immutable table, and the reconstruction frame is recycled inside each
// Encoder. Correctness rests on a single invariant, enforced at every
// reuse site and exercised by the pool-poisoning tests: a recycled buffer
// is either fully reset here or provably overwritten before any read.

// bwPool recycles BitWriters (their byte buffers keep capacity across
// uses). Safe to share between tiles, frames and sessions: Bytes()
// copies, so nothing aliases a pooled writer's buffer after release.
var bwPool = sync.Pool{New: func() any { return entropy.NewBitWriter() }}

// getBitWriter returns a reset writer from the pool.
func getBitWriter() *entropy.BitWriter {
	w := bwPool.Get().(*entropy.BitWriter)
	w.Reset()
	return w
}

// putBitWriter releases w for reuse. The caller must not touch w again.
func putBitWriter(w *entropy.BitWriter) { bwPool.Put(w) }

// tileCoderPool recycles tileCoder structs together with their per-block
// scratch slices (prediction, intra candidate, coefficient and residual
// buffers), which is what removes the per-block allocations from
// encodeBlock/bestIntra/codeResidual.
var tileCoderPool = sync.Pool{New: func() any { return new(tileCoder) }}

// putTileCoder releases t for reuse, dropping every reference it holds
// into frame data so pooled coders never pin planes or searchers.
func putTileCoder(t *tileCoder) {
	t.src, t.recon, t.ref, t.refSums = nil, nil, nil, nil
	t.quant = nil
	t.p = TileParams{}
	tileCoderPool.Put(t)
}

// sumPool recycles the reference sum tables of TZ search's candidate
// rejection, one per P-frame in flight, with their prefix-sum arrays. A
// table is process-wide, not per encoder, so an arriving session reuses a
// departed one's memory. Reset discards a recycled table's sums, and its
// first lookup rebuilds every one of them.
var sumPool = sync.Pool{New: func() any { return new(motion.SumTable) }}

// getSumTable returns a pooled table reset to the reference plane ref.
func getSumTable(ref *video.Plane) *motion.SumTable {
	t := sumPool.Get().(*motion.SumTable)
	t.Reset(ref)
	return t
}

// putSumTable releases t for reuse once no tile of its frame runs. It
// drops t's plane, so a pooled table never pins a frame.
func putSumTable(t *motion.SumTable) {
	t.Reset(nil)
	sumPool.Put(t)
}

// sizeScratch (re)sizes the per-block scratch for the coder's current
// config, reusing capacity when possible. Contents are deliberately NOT
// cleared: every path through the block loop fully overwrites the region
// it reads (interPredict/intraPredict write all bw*bh prediction samples,
// codeResidual zero-pads the residual gather explicitly, and the forward
// transform writes every coefficient).
func (t *tileCoder) sizeScratch() {
	b := t.cfg.BlockSize * t.cfg.BlockSize
	t.pred = resizeU8(t.pred, b)
	t.tmp = resizeU8(t.tmp, b)
	n := t.cfg.TransformSize * t.cfg.TransformSize
	t.coeffs = resizeI32(t.coeffs, n)
	t.res = resizeI32(t.res, n)
}

func resizeU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// quantTable memoizes quantizers for every legal (size, QP, intra)
// combination. Quantizers are immutable after construction, so one
// instance serves all tiles and goroutines; this removes the per-tile
// NewQuantizer allocation.
var quantTable [2][transform.MaxQP + 1][2]*transform.Quantizer

func init() {
	for ni, n := range [2]int{transform.Size4, transform.Size8} {
		for qp := transform.MinQP; qp <= transform.MaxQP; qp++ {
			for ii, intra := range [2]bool{false, true} {
				q, err := transform.NewQuantizer(n, qp, intra)
				if err != nil {
					panic(err) // unreachable: the loop covers only legal inputs
				}
				quantTable[ni][qp][ii] = q
			}
		}
	}
}

// quantizerFor returns the shared quantizer for (n, qp, intra), falling
// back to construction (and its validation errors) outside the table.
func quantizerFor(n, qp int, intra bool) (*transform.Quantizer, error) {
	if (n == transform.Size4 || n == transform.Size8) && qp >= transform.MinQP && qp <= transform.MaxQP {
		ni := 0
		if n == transform.Size8 {
			ni = 1
		}
		ii := 0
		if intra {
			ii = 1
		}
		return quantTable[ni][qp][ii], nil
	}
	return transform.NewQuantizer(n, qp, intra)
}

// PoisonPools stuffs the process-wide encode pools with deliberately
// dirty objects: bit writers mid-byte with garbage buffers, tile coders
// with stale stats, prediction state and scratch full of non-zero
// patterns, and sum tables built over a plane of another size and content
// that they still point at. It exists for tests proving the pooled encode
// path is bit-identical to a pristine one — production code must never
// call it.
// Frame recycling needs no poison hook: any sequence of three or more
// frames reuses a reconstruction buffer still holding real pixel data,
// which is as dirty as a buffer gets.
func PoisonPools() {
	for i := 0; i < 8; i++ {
		w := entropy.NewBitWriter()
		for j := 0; j < 8*i+3; j++ {
			w.WriteBits(0xAB, 7) // leaves a partial byte pending
		}
		bwPool.Put(w)

		t := new(tileCoder)
		t.stats = TileStats{Bits: 999, SSE: 1 << 40, InterBlocks: 77, SkippedBlocks: 13}
		t.lastMV.X, t.lastMV.Y = 31, -17
		t.mvSum.X, t.mvSum.Y = -1000, 1000
		t.pred = make([]uint8, 1024)
		t.tmp = make([]uint8, 1024)
		for j := range t.pred {
			t.pred[j] = 0xAA
			t.tmp[j] = 0x55
		}
		t.coeffs = make([]int32, 64)
		t.res = make([]int32, 64)
		for j := range t.coeffs {
			t.coeffs[j] = -123456
			t.res[j] = 654321
		}
		tileCoderPool.Put(t)

		stale := video.NewPlane(40+60*i, 30+40*i)
		for j := range stale.Pix {
			stale.Pix[j] = uint8(j*131 + i)
		}
		st := new(motion.SumTable)
		st.Reset(stale)
		// A TZ search is the way to make the table build its sums.
		motion.TZSearch{}.Search(motion.Block{Cur: stale, Ref: stale, W: 8, H: 8, RefSums: st}, 4, motion.MV{})
		sumPool.Put(st)
	}
}

// takeRecon returns the frame to encode the next reconstruction into:
// the encoder's recycled spare when its geometry matches, else a fresh
// allocation. The caller must fully overwrite the luma plane (guaranteed
// because a validated grid partitions the frame exactly and every block
// path writes its whole region) and both chroma planes (copied from the
// source frame).
func (e *Encoder) takeRecon() *video.Frame {
	if s := e.spare; s.CanReuse(e.cfg.Width, e.cfg.Height) {
		e.spare = nil
		s.Reset()
		return s
	}
	e.spare = nil
	return video.NewFrame(e.cfg.Width, e.cfg.Height)
}

// retireRef installs recon as the new reference and recycles the outgoing
// one as the next spare — but only if the encoder allocated it itself.
// References installed by Restore are externally owned (migration state a
// caller may still hold) and are never written again.
func (e *Encoder) retireRef(recon *video.Frame) {
	if old := e.ref; old != nil && e.refOwned {
		e.spare = old
	}
	e.ref = recon
	e.refOwned = true
}
