// Package transform implements the HEVC-style integer core transform for
// 4×4 and 8×8 blocks together with scalar quantization driven by the HEVC
// quantization parameter (Qstep = 2^((QP−4)/6)).
//
// The forward path uses the HEVC core matrices and bit-exact shift
// schedule (first-stage shift log2(N)+B−9 with B = 8-bit video,
// second-stage shift log2(N)+6); the inverse path uses shifts 7 and 12.
// Each stage is the HEVC even/odd partial butterfly (Budagavi et al.,
// IEEE JSTSP 2013) with int64 partial sums, so it computes exactly the
// integer matrix product with 24 multiplies per 8-point vector, not 64.
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
	forwardStage(n, src, tmp, s1) // rows, written transposed
	forwardStage(n, tmp, dst, s2) // columns
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
	inverseStage(n, src, tmp, 7)
	inverseStage(n, tmp, dst, 12)
	return nil
}

// Each stage reads row r of src as a vector v and writes its transform to
// column r of dst, with a rounding right shift, so two stages complete the
// 2-D transform. The sums are the core matrix's rows (forward) or columns
// (inverse) split by the matrix's even/odd symmetry; every partial sum is
// an int64, so a stage equals the plain matrix product for any int32
// input, hostile decoder levels included.

// forwardStage is one forward pass: dst column r = M·v.
func forwardStage(n int, src, dst []int32, shift uint) {
	round := int64(1) << (shift - 1)
	if n == Size4 {
		for r := 0; r < Size4; r++ {
			v := src[r*Size4 : r*Size4+Size4 : r*Size4+Size4]
			y0, y1, y2, y3 := fwd4(int64(v[0]), int64(v[1]), int64(v[2]), int64(v[3]))
			dst[r] = int32((y0 + round) >> shift)
			dst[Size4+r] = int32((y1 + round) >> shift)
			dst[2*Size4+r] = int32((y2 + round) >> shift)
			dst[3*Size4+r] = int32((y3 + round) >> shift)
		}
		return
	}
	for r := 0; r < Size8; r++ {
		v := src[r*Size8 : r*Size8+Size8 : r*Size8+Size8]
		x0, x1, x2, x3 := int64(v[0]), int64(v[1]), int64(v[2]), int64(v[3])
		x4, x5, x6, x7 := int64(v[4]), int64(v[5]), int64(v[6]), int64(v[7])
		// Even rows of M8 are M4 applied to the folded sums.
		y0, y2, y4, y6 := fwd4(x0+x7, x1+x6, x2+x5, x3+x4)
		o0, o1, o2, o3 := x0-x7, x1-x6, x2-x5, x3-x4
		y1 := 89*o0 + 75*o1 + 50*o2 + 18*o3
		y3 := 75*o0 - 18*o1 - 89*o2 - 50*o3
		y5 := 50*o0 - 89*o1 + 18*o2 + 75*o3
		y7 := 18*o0 - 50*o1 + 75*o2 - 89*o3
		dst[r] = int32((y0 + round) >> shift)
		dst[Size8+r] = int32((y1 + round) >> shift)
		dst[2*Size8+r] = int32((y2 + round) >> shift)
		dst[3*Size8+r] = int32((y3 + round) >> shift)
		dst[4*Size8+r] = int32((y4 + round) >> shift)
		dst[5*Size8+r] = int32((y5 + round) >> shift)
		dst[6*Size8+r] = int32((y6 + round) >> shift)
		dst[7*Size8+r] = int32((y7 + round) >> shift)
	}
}

// inverseStage is one inverse pass: dst column r = Mᵀ·v.
func inverseStage(n int, src, dst []int32, shift uint) {
	round := int64(1) << (shift - 1)
	if n == Size4 {
		for r := 0; r < Size4; r++ {
			v := src[r*Size4 : r*Size4+Size4 : r*Size4+Size4]
			x0, x1, x2, x3 := inv4(int64(v[0]), int64(v[1]), int64(v[2]), int64(v[3]))
			dst[r] = int32((x0 + round) >> shift)
			dst[Size4+r] = int32((x1 + round) >> shift)
			dst[2*Size4+r] = int32((x2 + round) >> shift)
			dst[3*Size4+r] = int32((x3 + round) >> shift)
		}
		return
	}
	for r := 0; r < Size8; r++ {
		v := src[r*Size8 : r*Size8+Size8 : r*Size8+Size8]
		y0, y1, y2, y3 := int64(v[0]), int64(v[1]), int64(v[2]), int64(v[3])
		y4, y5, y6, y7 := int64(v[4]), int64(v[5]), int64(v[6]), int64(v[7])
		// The even coefficients feed M4ᵀ; the odd ones the odd columns.
		e0, e1, e2, e3 := inv4(y0, y2, y4, y6)
		o0 := 89*y1 + 75*y3 + 50*y5 + 18*y7
		o1 := 75*y1 - 18*y3 - 89*y5 - 50*y7
		o2 := 50*y1 - 89*y3 + 18*y5 + 75*y7
		o3 := 18*y1 - 50*y3 + 75*y5 - 89*y7
		dst[r] = int32((e0 + o0 + round) >> shift)
		dst[Size8+r] = int32((e1 + o1 + round) >> shift)
		dst[2*Size8+r] = int32((e2 + o2 + round) >> shift)
		dst[3*Size8+r] = int32((e3 + o3 + round) >> shift)
		dst[4*Size8+r] = int32((e3 - o3 + round) >> shift)
		dst[5*Size8+r] = int32((e2 - o2 + round) >> shift)
		dst[6*Size8+r] = int32((e1 - o1 + round) >> shift)
		dst[7*Size8+r] = int32((e0 - o0 + round) >> shift)
	}
}

// fwd4 is the 4-point forward butterfly, M4·(x0, x1, x2, x3) with
// M4 = [64 64 64 64; 83 36 −36 −83; 64 −64 −64 64; 36 −83 83 −36].
func fwd4(x0, x1, x2, x3 int64) (y0, y1, y2, y3 int64) {
	e0, e1 := x0+x3, x1+x2
	o0, o1 := x0-x3, x1-x2
	return 64*e0 + 64*e1, 83*o0 + 36*o1, 64*e0 - 64*e1, 36*o0 - 83*o1
}

// inv4 is the 4-point inverse butterfly, M4ᵀ·(y0, y1, y2, y3).
func inv4(y0, y1, y2, y3 int64) (x0, x1, x2, x3 int64) {
	e0, e1 := 64*y0+64*y2, 64*y0-64*y2
	o0, o1 := 83*y1+36*y3, 36*y1-83*y3
	return e0 + o0, e1 + o1, e1 - o1, e0 - o0
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
