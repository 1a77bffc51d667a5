package codec

import (
	"fmt"

	"repro/internal/entropy"
	"repro/internal/motion"
	"repro/internal/tiling"
	"repro/internal/transform"
	"repro/internal/video"
)

// Decoder reconstructs frames from Bitstreams produced by Encoder. Its
// reconstruction is bit-exact with the encoder's in-loop reconstruction,
// which the test suite verifies; this is the property that keeps encoder
// and decoder drift-free across a GOP.
type Decoder struct {
	cfg Config
	ref *video.Frame
	n   int
}

// NewDecoder validates cfg (which must match the encoder's) and returns a
// decoder.
func NewDecoder(cfg Config) (*Decoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Decoder{cfg: cfg}, nil
}

// DecodeFrame decodes the next frame. The tile grid must match the one the
// encoder used for this frame (carried out-of-band, as tile geometry would
// live in the picture parameter set of a real stream).
func (d *Decoder) DecodeFrame(bs *Bitstream, grid *tiling.Grid) (*video.Frame, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	if grid.FrameW != d.cfg.Width || grid.FrameH != d.cfg.Height {
		return nil, fmt.Errorf("codec: grid %dx%d does not match decoder %dx%d",
			grid.FrameW, grid.FrameH, d.cfg.Width, d.cfg.Height)
	}
	if len(bs.Tiles) != len(grid.Tiles) {
		return nil, fmt.Errorf("codec: %d tile payloads for %d tiles", len(bs.Tiles), len(grid.Tiles))
	}
	if bs.Type == FrameP && d.ref == nil {
		return nil, fmt.Errorf("codec: P-frame without reference")
	}
	recon := video.NewFrame(d.cfg.Width, d.cfg.Height)
	recon.Number = d.n
	for i, tile := range grid.Tiles {
		if err := d.decodeTile(bs.Tiles[i], tile, bs.Type, recon); err != nil {
			return nil, fmt.Errorf("codec: tile %d: %w", i, err)
		}
	}
	recon.Cb.Fill(128)
	recon.Cr.Fill(128)
	d.ref = recon
	d.n++
	return recon, nil
}

// decodeTile parses one tile payload into the reconstruction frame.
func (d *Decoder) decodeTile(payload []byte, tile tiling.Tile, ftype FrameType, recon *video.Frame) error {
	r := entropy.NewBitReader(payload)
	qpU, err := r.ReadUE()
	if err != nil {
		return fmt.Errorf("tile header: %w", err)
	}
	qp := int(qpU)
	if qp < transform.MinQP || qp > transform.MaxQP {
		return fmt.Errorf("tile header QP %d out of range", qp)
	}
	quant, err := transform.NewQuantizer(d.cfg.TransformSize, qp, ftype == FrameI)
	if err != nil {
		return err
	}
	var refY *video.Plane
	if d.ref != nil {
		refY = d.ref.Y
	}

	bsz := d.cfg.BlockSize
	lastMV := motion.MV{}
	for by := tile.Y; by < tile.Y+tile.H; by += bsz {
		for bx := tile.X; bx < tile.X+tile.W; bx += bsz {
			bw := min(bsz, tile.X+tile.W-bx)
			bh := min(bsz, tile.Y+tile.H-by)
			if err := d.decodeBlock(r, quant, refY, recon.Y, tile, ftype, bx, by, bw, bh, &lastMV); err != nil {
				return fmt.Errorf("block @(%d,%d): %w", bx, by, err)
			}
		}
	}
	return nil
}

func (d *Decoder) decodeBlock(r *entropy.BitReader, quant *transform.Quantizer, ref, recon *video.Plane,
	tile tiling.Tile, ftype FrameType, bx, by, bw, bh int, lastMV *motion.MV) error {

	pred := make([]uint8, bw*bh)
	if ftype == FrameP {
		interBit, err := r.ReadBit()
		if err != nil {
			return err
		}
		if interBit == 1 {
			dx, err := r.ReadSE()
			if err != nil {
				return err
			}
			dy, err := r.ReadSE()
			if err != nil {
				return err
			}
			mv := motion.MV{X: lastMV.X + int(dx), Y: lastMV.Y + int(dy)}
			*lastMV = mv
			rx, ry := bx+mv.X, by+mv.Y
			if rx < 0 || ry < 0 || rx+bw > ref.W || ry+bh > ref.H {
				return fmt.Errorf("motion vector %v leaves frame", mv)
			}
			interPredict(ref, bx, by, bw, bh, mv, pred)
		} else {
			if err := decodeIntra(r, recon, tile, bx, by, bw, bh, pred); err != nil {
				return err
			}
		}
	} else {
		if err := decodeIntra(r, recon, tile, bx, by, bw, bh, pred); err != nil {
			return err
		}
	}

	n := d.cfg.TransformSize
	coeffs := make([]int32, n*n)
	return d.decodeResidual(r, quant, recon, bx, by, bw, bh, pred, coeffs)
}

// decodeIntra parses an intra mode, validates that its reference samples
// exist inside the tile (a conforming encoder never emits an unavailable
// mode, so a violation means stream corruption) and fills the prediction.
func decodeIntra(r *entropy.BitReader, recon *video.Plane, tile tiling.Tile, bx, by, bw, bh int, pred []uint8) error {
	mode, err := r.ReadUE()
	if err != nil {
		return err
	}
	if mode >= numIntraModes {
		return fmt.Errorf("intra mode %d out of range", mode)
	}
	if (mode == intraHorizontal && bx <= tile.X) || (mode == intraVertical && by <= tile.Y) {
		return fmt.Errorf("intra mode %d has no reference samples at tile edge", mode)
	}
	intraPredict(recon, tile, int(mode), bx, by, bw, bh, pred)
	return nil
}

func (d *Decoder) decodeResidual(r *entropy.BitReader, quant *transform.Quantizer, recon *video.Plane,
	bx, by, bw, bh int, pred []uint8, coeffs []int32) error {
	n := d.cfg.TransformSize
	for sy := 0; sy < bh; sy += n {
		for sx := 0; sx < bw; sx += n {
			vw := min(n, bw-sx)
			vh := min(n, bh-sy)
			if err := entropy.DecodeCoeffBlock(r, n, coeffs); err != nil {
				return err
			}
			if !allZero(coeffs) {
				if err := quant.Dequantize(coeffs, coeffs); err != nil {
					return err
				}
				if err := transform.Inverse(n, coeffs, coeffs); err != nil {
					return err
				}
			}
			for y := 0; y < vh; y++ {
				rrow := recon.Pix[(by+sy+y)*recon.Stride+bx+sx : (by+sy+y)*recon.Stride+bx+sx+vw]
				for x := 0; x < vw; x++ {
					rrow[x] = video.ClampU8(int(pred[(sy+y)*bw+sx+x]) + int(coeffs[y*n+x]))
				}
			}
		}
	}
	return nil
}
