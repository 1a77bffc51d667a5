// Package quality implements the paper's per-tile quality-aware encoding
// configuration (Sec. III-C1): texture-dependent default quantization
// parameters and the Algorithm 1 feedback loop that adapts each tile's QP
// from the previous frame's PSNR and bitrate measurements, under a PSNR
// constraint with a safety margin.
package quality

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/transform"
)

// Default QPs per texture class (paper: 37 low, 32 medium, 27 high) and the
// extreme values explored by the adaptation loop (42 for very-low-texture
// tiles, 22 to rescue PSNR on extreme high-texture tiles).
const (
	qpLowTexture    = 37
	qpMediumTexture = 32
	qpHighTexture   = 27
	qpMaxExtreme    = 42
	qpMinExtreme    = 22
)

// defaultQP returns the paper's default QP for a texture class.
func defaultQP(t analysis.TextureClass) int {
	switch t {
	case analysis.TextureLow:
		return qpLowTexture
	case analysis.TextureMedium:
		return qpMediumTexture
	default:
		return qpHighTexture
	}
}

// Constraints holds the per-user service constraints from the transcoding
// request: the minimum acceptable video quality and the bitrate budget.
type Constraints struct {
	// MinPSNR is PSNR_const in Algorithm 1 (dB).
	MinPSNR float64
	// PSNRMargin is the margin above MinPSNR beyond which QP may be
	// raised without risking constraint violation.
	PSNRMargin float64
	// MaxBitrateKbps bounds the per-video bitrate (0 = unconstrained).
	MaxBitrateKbps float64
}

// DefaultConstraints matches the paper's evaluation regime (Table II
// reports ≈40–46 dB at ≈2.2 Mbps for 640×480@24).
func DefaultConstraints() Constraints {
	return Constraints{MinPSNR: 38, PSNRMargin: 2, MaxBitrateKbps: 4000}
}

// validate reports constraint errors.
func (c Constraints) validate() error {
	if c.MinPSNR <= 0 || c.MinPSNR >= 100 {
		return fmt.Errorf("quality: MinPSNR %v outside (0, 100)", c.MinPSNR)
	}
	if c.PSNRMargin < 0 {
		return fmt.Errorf("quality: negative PSNR margin %v", c.PSNRMargin)
	}
	if c.MaxBitrateKbps < 0 {
		return fmt.Errorf("quality: negative bitrate bound %v", c.MaxBitrateKbps)
	}
	return nil
}

// Measurement carries one tile's previous-frame outcome into the adapter.
type Measurement struct {
	// PSNR of the co-located tile in the previous frame (dB).
	PSNR float64
	// BitrateKbps is the tile's contribution extrapolated to a bitrate.
	BitrateKbps float64
}

// Adapter runs Algorithm 1 per tile: it owns each tile's current QP and
// moves it by StepQP based on previous-frame measurements. The zero value
// is not usable; construct with NewAdapter.
type Adapter struct {
	constraints Constraints
	// StepQP is ΔQP in Algorithm 1.
	stepQP int
	// qps maps tile index → current QP.
	qps map[int]int
}

// NewAdapter builds an adapter with ΔQP = 1 if stepQP ≤ 0.
func NewAdapter(constraints Constraints, stepQP int) (*Adapter, error) {
	if err := constraints.validate(); err != nil {
		return nil, err
	}
	if stepQP <= 0 {
		stepQP = 1
	}
	return &Adapter{constraints: constraints, stepQP: stepQP, qps: make(map[int]int)}, nil
}

// ResetTile installs the texture-derived default QP for a tile, called when
// a GOP starts or the tile structure changes.
func (a *Adapter) ResetTile(tile int, texture analysis.TextureClass) int {
	qp := defaultQP(texture)
	a.qps[tile] = qp
	return qp
}

// Adapt applies Algorithm 1 for one tile given the previous frame's
// measurement and the tile's current texture/motion classes, returning the
// QP to use for the next frame:
//
//	if PSNR_{t−Δt} > PSNR_const + PSNR_margin:  QP ← QP + ΔQP  (cheaper)
//	else if PSNR_{t−Δt} < PSNR_const:           QP ← QP − ΔQP  (rescue)
//	else:                                       default QP per texture
//
// The result is clamped to [qpMinExtreme, qpMaxExtreme] — the paper's
// extreme values — and additionally nudged up when the bitrate bound is
// exceeded (compression is a hard requisite for online streaming).
func (a *Adapter) Adapt(tile int, m Measurement, texture analysis.TextureClass) int {
	qp, ok := a.qps[tile]
	if !ok {
		qp = defaultQP(texture)
	}
	switch {
	case m.PSNR > a.constraints.MinPSNR+a.constraints.PSNRMargin:
		qp += a.stepQP
	case m.PSNR < a.constraints.MinPSNR:
		qp -= a.stepQP
	default:
		qp = defaultQP(texture)
	}
	if a.constraints.MaxBitrateKbps > 0 && m.BitrateKbps > a.constraints.MaxBitrateKbps {
		qp += a.stepQP
	}
	qp = clampQP(qp)
	a.qps[tile] = qp
	return qp
}

// clampQP bounds QP to the paper's explored range, which itself sits inside
// the codec's legal range.
func clampQP(qp int) int {
	if qp < qpMinExtreme {
		return qpMinExtreme
	}
	if qp > qpMaxExtreme {
		return qpMaxExtreme
	}
	return qp
}

// Compile-time guards: the extreme QPs must be legal for the codec (array
// lengths must be non-negative constants).
var (
	_ [qpMaxExtreme - transform.MinQP]struct{}
	_ [transform.MaxQP - qpMaxExtreme]struct{}
	_ [qpMinExtreme - transform.MinQP]struct{}
)
