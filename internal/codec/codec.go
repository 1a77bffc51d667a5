// Package codec implements the block-based hybrid video encoder/decoder
// that stands in for the Kvazaar HEVC encoder the paper builds on. It
// supports everything the paper's method needs from an encoder:
//
//   - independent tile encoding (each tile is a self-contained bitstream,
//     so tiles parallelize across threads/cores);
//   - intra prediction (DC / horizontal / vertical) and inter prediction
//     with pluggable motion search (internal/motion) and per-tile search
//     windows;
//   - per-tile quantization parameters (internal/transform), 8×8 integer
//     transforms and run-level Exp-Golomb residual coding (internal/entropy);
//   - an in-loop reconstruction path, so encoder and decoder stay in sync
//     and rate/distortion numbers are real;
//   - GOP structure with an intra frame opening each intra period and
//     P-frames referencing the previous reconstructed frame. (The paper's
//     Random Access configuration uses hierarchical B-frames; this codec
//     substitutes low-delay P referencing, which preserves the properties
//     the method exploits — inter prediction dominating encode time and
//     per-tile cost tracking content. See DESIGN.md.)
package codec

import (
	"fmt"
	"time"

	"repro/internal/motion"
	"repro/internal/tiling"
	"repro/internal/transform"
)

// FrameType distinguishes intra-only frames from predicted frames.
type FrameType int

// Frame types.
const (
	FrameI FrameType = iota
	FrameP
)

// String returns "I" or "P".
func (t FrameType) String() string {
	if t == FrameI {
		return "I"
	}
	return "P"
}

// Intra prediction modes.
const (
	intraDC = iota
	intraHorizontal
	intraVertical
	numIntraModes
)

// Config holds sequence-level encoder parameters.
type Config struct {
	Width, Height int
	// FPS converts frame bits to bitrate.
	FPS float64
	// GOPSize is the group-of-pictures length (paper: 8). Re-tiling and
	// search-policy state are managed per GOP by the caller.
	GOPSize int
	// IntraPeriod inserts an I-frame every IntraPeriod frames (a multiple
	// of GOPSize keeps GOP alignment). 0 means a single I-frame at the
	// start of the sequence.
	IntraPeriod int
	// BlockSize is the prediction block size (default 16).
	BlockSize int
	// TransformSize is the residual transform size (4 or 8; default 8).
	TransformSize int
}

// DefaultConfig returns the evaluation configuration of the paper: 640×480
// at 24 FPS with GOP size 8.
func DefaultConfig() Config {
	return Config{Width: 640, Height: 480, FPS: 24, GOPSize: 8, IntraPeriod: 48, BlockSize: 16, TransformSize: 8}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("codec: invalid size %dx%d", c.Width, c.Height)
	}
	if c.FPS <= 0 {
		return fmt.Errorf("codec: invalid fps %v", c.FPS)
	}
	if c.GOPSize <= 0 {
		return fmt.Errorf("codec: invalid GOP size %d", c.GOPSize)
	}
	if c.IntraPeriod < 0 {
		return fmt.Errorf("codec: negative intra period %d", c.IntraPeriod)
	}
	if c.IntraPeriod > 0 && c.IntraPeriod%c.GOPSize != 0 {
		return fmt.Errorf("codec: intra period %d not a multiple of GOP size %d", c.IntraPeriod, c.GOPSize)
	}
	if c.BlockSize <= 0 || c.BlockSize%8 != 0 {
		return fmt.Errorf("codec: block size %d must be a positive multiple of 8", c.BlockSize)
	}
	// Per-block scratch is BlockSize² samples: a block the frame cannot
	// hold would let a config from the wire size an allocation.
	if c.BlockSize > c.Width || c.BlockSize > c.Height {
		return fmt.Errorf("codec: block size %d exceeds the %dx%d frame", c.BlockSize, c.Width, c.Height)
	}
	if c.TransformSize != transform.Size4 && c.TransformSize != transform.Size8 {
		return fmt.Errorf("codec: transform size %d must be 4 or 8", c.TransformSize)
	}
	return nil
}

// frameTypeOf returns the frame type for display-order frame n under the
// configured intra period.
func (c Config) frameTypeOf(n int) FrameType {
	if n == 0 {
		return FrameI
	}
	if c.IntraPeriod > 0 && n%c.IntraPeriod == 0 {
		return FrameI
	}
	return FrameP
}

// FrameInGOP returns n modulo the GOP size.
func (c Config) FrameInGOP(n int) int { return n % c.GOPSize }

// TileParams carries the per-tile encoding configuration chosen by the
// framework (QP from the quality adapter, search algorithm and window from
// the motion policy).
type TileParams struct {
	QP       int
	Searcher motion.Searcher
	Window   int
	// Pred seeds the motion search (e.g. the tile's GOP direction).
	Pred motion.MV
}

// TileStats aggregates measurements from encoding one tile of one frame.
type TileStats struct {
	Tile tiling.Tile
	QP   int
	// Window is the motion-search window the tile was encoded with. QP and
	// Window let the serving loop rebuild the tile's workload-LUT key from
	// the report alone (for measurement calibration), without re-deriving
	// the per-tile configuration.
	Window int
	// Bits is the exact size of the tile's bitstream payload in bits.
	Bits int
	// SSE is the summed squared error of the reconstruction vs the source
	// over the tile (luma).
	SSE int64
	// PSNR is the tile's luma PSNR derived from SSE (capped at 100 dB).
	PSNR float64
	// EncodeTime is the wall-clock time spent encoding the tile. It is
	// reported, never learned: the workload LUT prices a tile by Work.
	EncodeTime time.Duration
	// SearchTime is the portion of EncodeTime spent inside motion search,
	// likewise reported only.
	SearchTime time.Duration
	// SearchEvals counts motion-search SAD evaluations in the tile.
	SearchEvals int
	// InterBlocks and IntraBlocks count the mode decisions.
	InterBlocks, IntraBlocks int
	// SkippedBlocks counts transform sub-blocks that took the all-zero
	// skip fast path.
	SkippedBlocks int
	// MeanMV is the average motion vector of inter blocks.
	MeanMV motion.MV
}

// Work is the tile's modelled CPU time, a pure function of its work
// counters: 20 ns per pixel of tile area, nsPerEval ns per motion-search
// SAD evaluation and 135 ns per coded bit. It is the one price a workload
// LUT learns, so every estimate, admission and allocation is the same on
// every host, run and GOMAXPROCS. The pixel and bit prices, with a search
// weight of 220, are a least-squares fit of this codec's EncodeTime
// (DESIGN.md §3).
func (ts TileStats) Work(nsPerEval int) time.Duration {
	return time.Duration(20*ts.Tile.Area() + nsPerEval*ts.SearchEvals + 135*ts.Bits)
}

// FrameStats aggregates a full frame.
type FrameStats struct {
	Number int
	Type   FrameType
	Tiles  []TileStats
	// Bits is the total frame payload in bits.
	Bits int
	// PSNR is the frame luma PSNR (capped at 100 dB).
	PSNR float64
	// EncodeTime is the sum of the per-tile encode times (the serialized
	// CPU time; wall time under parallel encoding is the max per core).
	EncodeTime time.Duration
	// SearchEvals sums motion-search evaluations over the frame.
	SearchEvals int
}

// Kbps returns the instantaneous bitrate of the frame at the given FPS.
func (s FrameStats) Kbps(fps float64) float64 { return float64(s.Bits) * fps / 1e3 }

// Bitstream is the encoded payload of one frame: one self-contained chunk
// per tile, matching the grid order.
type Bitstream struct {
	Type  FrameType
	Tiles [][]byte
}
