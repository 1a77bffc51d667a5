// Package transform implements the HEVC-style integer core transform for
// 4×4 and 8×8 blocks together with scalar quantization driven by the HEVC
// quantization parameter (Qstep = 2^((QP−4)/6)).
//
// The forward path uses the HEVC core matrices and bit-exact shift
// schedule (first-stage shift log2(N)+B−9 with B = 8-bit video,
// second-stage shift log2(N)+6); the inverse path uses shifts 7 and 12.
// Each stage is a plain matrix product (mulStage), not the even/odd
// partial butterfly; ROADMAP item 1 replaces it.
// With this schedule the concatenation forward→inverse has unit gain, so a
// quantizer with Qstep expressed in *spatial-domain* units can divide the
// transform coefficients after compensating the known forward gain
// (32 for 4×4, 16 for 8×8).
package transform

import (
	"fmt"
	"math"
)

// Block sizes supported by the core transform.
const (
	Size4 = 4
	Size8 = 8
)

// m4 is the HEVC 4×4 core transform matrix.
var m4 = [4][4]int32{
	{64, 64, 64, 64},
	{83, 36, -36, -83},
	{64, -64, -64, 64},
	{36, -83, 83, -36},
}

// m8 is the HEVC 8×8 core transform matrix.
var m8 = [8][8]int32{
	{64, 64, 64, 64, 64, 64, 64, 64},
	{89, 75, 50, 18, -18, -50, -75, -89},
	{83, 36, -36, -83, -83, -36, 36, 83},
	{75, -18, -89, -50, 50, 89, 18, -75},
	{64, -64, -64, 64, 64, -64, -64, 64},
	{50, -89, 18, 75, -75, -18, 89, -50},
	{36, -83, 83, -36, -36, 83, -83, 36},
	{18, -50, 75, -89, 89, -75, 50, -18},
}

// forwardGain returns the end-to-end multiplicative gain of the forward
// transform relative to an orthonormal DCT for block size n.
func forwardGain(n int) float64 {
	switch n {
	case Size4:
		return 32
	case Size8:
		return 16
	default:
		panic(fmt.Sprintf("transform: unsupported size %d", n))
	}
}

// shifts returns the HEVC forward shift schedule for size n (8-bit video).
func shifts(n int) (s1, s2 uint) {
	switch n {
	case Size4:
		return 1, 8 // log2(4)+8−9, log2(4)+6
	case Size8:
		return 2, 9 // log2(8)+8−9, log2(8)+6
	default:
		panic(fmt.Sprintf("transform: unsupported size %d", n))
	}
}

// Forward applies the 2-D forward core transform in place semantics:
// src is an n×n residual block (row-major, length n*n) and dst receives the
// n×n coefficient block. src and dst may alias.
func Forward(n int, src, dst []int32) error {
	if err := checkBlock(n, src, dst); err != nil {
		return err
	}
	s1, s2 := shifts(n)
	// Fixed-size stage scratch (n ≤ 8, so n*n ≤ 64): stays on the caller's
	// stack, keeping the per-sub-block transform allocation-free.
	var scratch [Size8 * Size8]int32
	tmp := scratch[:n*n]
	mulStage(n, src, tmp, s1, false) // rows: tmp = (M · srcᵀ-wise) per HEVC column pass
	mulStage(n, tmp, dst, s2, false) // columns
	return nil
}

// Inverse applies the 2-D inverse core transform: src is an n×n coefficient
// block and dst receives the reconstructed residual. src and dst may alias.
func Inverse(n int, src, dst []int32) error {
	if err := checkBlock(n, src, dst); err != nil {
		return err
	}
	var scratch [Size8 * Size8]int32
	tmp := scratch[:n*n]
	mulStage(n, src, tmp, 7, true)
	mulStage(n, tmp, dst, 12, true)
	return nil
}

// mulStage performs one separable stage: for each row r of src (treated as
// a vector v), dst column r receives M·v (forward) or Mᵀ·v (inverse), with
// rounding right-shift. Writing results transposed means two applications
// complete the 2-D transform in both dimensions.
func mulStage(n int, src, dst []int32, shift uint, inverse bool) {
	round := int64(1) << (shift - 1)
	for r := 0; r < n; r++ {
		v := src[r*n : r*n+n]
		for k := 0; k < n; k++ {
			var acc int64
			for i := 0; i < n; i++ {
				var coeff int32
				if inverse {
					coeff = matAt(n, i, k)
				} else {
					coeff = matAt(n, k, i)
				}
				acc += int64(coeff) * int64(v[i])
			}
			dst[k*n+r] = int32((acc + round) >> shift)
		}
	}
}

// matAt returns the (row, col) entry of the size-n core matrix.
func matAt(n, row, col int) int32 {
	if n == Size4 {
		return m4[row][col]
	}
	return m8[row][col]
}

func checkBlock(n int, src, dst []int32) error {
	if n != Size4 && n != Size8 {
		return fmt.Errorf("transform: unsupported size %d", n)
	}
	if len(src) != n*n || len(dst) != n*n {
		return fmt.Errorf("transform: block length src=%d dst=%d, want %d", len(src), len(dst), n*n)
	}
	return nil
}

// MinQP and MaxQP bound the HEVC quantization parameter range.
const (
	MinQP = 0
	MaxQP = 51
)

// Qstep returns the HEVC quantization step for a QP: 2^((QP−4)/6).
// QP 4 → 1.0; +6 QP doubles the step.
func Qstep(qp int) float64 {
	return math.Pow(2, float64(qp-4)/6)
}

// Quantizer quantizes transform coefficients of one block size at one QP.
type Quantizer struct {
	n      int
	qp     int
	scaled float64 // Qstep × forward gain
	// deadzone shifts the rounding point: 0.5 is plain rounding; HEVC uses
	// ≈1/3 for intra and ≈1/6 for inter. Smaller values bias levels toward
	// zero (better rate, slightly worse distortion).
	deadzone float64
}

// NewQuantizer builds a quantizer for block size n (4 or 8) at qp.
// intra selects the intra deadzone.
func NewQuantizer(n, qp int, intra bool) (*Quantizer, error) {
	if n != Size4 && n != Size8 {
		return nil, fmt.Errorf("transform: unsupported size %d", n)
	}
	if qp < MinQP || qp > MaxQP {
		return nil, fmt.Errorf("transform: QP %d outside [%d, %d]", qp, MinQP, MaxQP)
	}
	// HEVC rounding offsets: ≈1/3 of a step for intra, ≈1/6 for inter.
	dz := 1.0 / 6
	if intra {
		dz = 1.0 / 3
	}
	return &Quantizer{n: n, qp: qp, scaled: Qstep(qp) * forwardGain(n), deadzone: dz}, nil
}

// QP returns the quantizer's QP.
func (q *Quantizer) QP() int { return q.qp }

// ZeroSADBound returns a residual-SAD bound under which every transform
// coefficient of the block is guaranteed to quantize to zero, enabling the
// encoder's skip fast path without changing the bitstream.
//
// Derivation: the orthonormal-equivalent coefficient magnitude is bounded
// by maxAmp·SAD where maxAmp is the largest 2-D basis amplitude (1/4 for
// 8×8, 1/2 for 4×4); the integer transform scales it by the forward gain g,
// and a level is zero when |c| < g·Qstep·(1 − deadzone). Hence
// SAD < Qstep·(1 − dz)/maxAmp suffices.
func (q *Quantizer) ZeroSADBound() int64 {
	maxAmp := 0.25
	if q.n == Size4 {
		maxAmp = 0.5
	}
	return int64(Qstep(q.qp) * (1 - q.deadzone) / maxAmp)
}

// Quantize maps coefficients to levels: level = sign·floor(|c|/qs + dz).
// dst and src may alias.
func (q *Quantizer) Quantize(src, dst []int32) error {
	if len(src) != q.n*q.n || len(dst) != q.n*q.n {
		return fmt.Errorf("transform: quantize length src=%d dst=%d, want %d", len(src), len(dst), q.n*q.n)
	}
	for i, c := range src {
		neg := c < 0
		a := float64(c)
		if neg {
			a = -a
		}
		level := int32(a/q.scaled + q.deadzone)
		if neg {
			level = -level
		}
		dst[i] = level
	}
	return nil
}

// Dequantize maps levels back to reconstructed coefficients.
// dst and src may alias.
func (q *Quantizer) Dequantize(src, dst []int32) error {
	if len(src) != q.n*q.n || len(dst) != q.n*q.n {
		return fmt.Errorf("transform: dequantize length src=%d dst=%d, want %d", len(src), len(dst), q.n*q.n)
	}
	for i, l := range src {
		dst[i] = int32(math.Round(float64(l) * q.scaled))
	}
	return nil
}
