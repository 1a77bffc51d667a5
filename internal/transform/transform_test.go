package transform

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
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

// matAt returns the (row, col) entry of the size-n core matrix.
func matAt(n, row, col int) int32 {
	if n == Size4 {
		return m4[row][col]
	}
	return m8[row][col]
}

// mulStage is the oracle for one separable stage: for each row r of src
// (a vector v), dst column r receives M·v (forward) or Mᵀ·v (inverse) as
// a plain int64 matrix product with a rounding right shift.
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

// oracle runs the two matrix-product stages Forward or Inverse must equal.
func oracle(n int, src []int32, inverse bool) []int32 {
	s1, s2 := shifts(n)
	if inverse {
		s1, s2 = 7, 12
	}
	tmp, dst := make([]int32, n*n), make([]int32, n*n)
	mulStage(n, src, tmp, s1, inverse)
	mulStage(n, tmp, dst, s2, inverse)
	return dst
}

// checkButterfly fails t unless Forward and Inverse of src equal the
// matrix-product oracle bit for bit.
func checkButterfly(t *testing.T, n int, src []int32) {
	t.Helper()
	for _, inverse := range []bool{false, true} {
		got := make([]int32, n*n)
		run, name := Forward, "Forward"
		if inverse {
			run, name = Inverse, "Inverse"
		}
		if err := run(n, src, got); err != nil {
			t.Fatal(err)
		}
		want := oracle(n, src, inverse)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s(%d) of %v: [%d] = %d, matrix product %d", name, n, src, i, got[i], want[i])
			}
		}
	}
}

// extremeBlocks are n×n blocks at the int32 edges: what a hostile
// bitstream's levels can reach after dequantization.
func extremeBlocks(n int) [][]int32 {
	var out [][]int32
	for _, fill := range []func(i int) int32{
		func(int) int32 { return math.MaxInt32 },
		func(int) int32 { return math.MinInt32 },
		func(i int) int32 { return []int32{math.MaxInt32, math.MinInt32}[i%2] },
		func(i int) int32 { return []int32{math.MinInt32, -math.MaxInt32, math.MaxInt32}[i%3] },
		func(i int) int32 { return []int32{255, -255}[(i/n+i)%2] },
	} {
		b := make([]int32, n*n)
		for i := range b {
			b[i] = fill(i)
		}
		out = append(out, b)
	}
	return out
}

func TestButterflyEqualsMatrixProduct(t *testing.T) {
	for _, n := range []int{Size4, Size8} {
		for seed := int64(0); seed < 200; seed++ {
			checkButterfly(t, n, randBlock(n, seed))
		}
		for _, b := range extremeBlocks(n) {
			checkButterfly(t, n, b)
		}
	}
}

// FuzzButterfly holds Forward and Inverse to the matrix-product oracle
// for both sizes: the fuzzed bytes are read as little-endian int32s, the
// first 16 forming the 4×4 block and the first 64 the 8×8 one.
func FuzzButterfly(f *testing.F) {
	for _, b := range append([][]int32{randBlock(Size8, 1), randBlock(Size8, 2)}, extremeBlocks(Size8)...) {
		data := make([]byte, 4*len(b))
		for i, v := range b {
			binary.LittleEndian.PutUint32(data[4*i:], uint32(v))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var blk [Size8 * Size8]int32
		for i := range blk {
			if 4*i+4 > len(data) {
				break
			}
			blk[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkButterfly(t, Size4, blk[:Size4*Size4])
		checkButterfly(t, Size8, blk[:])
	})
}

// randBlock fills an n×n residual block deterministically from a seed,
// values in the signed residual range [-255, 255].
func randBlock(n int, seed int64) []int32 {
	b := make([]int32, n*n)
	s := uint64(seed)*2654435761 + 12345
	for i := range b {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		b[i] = int32(s%511) - 255
	}
	return b
}

func TestForwardInverseUnitGain4(t *testing.T) {
	testRoundTrip(t, Size4)
}

func TestForwardInverseUnitGain8(t *testing.T) {
	testRoundTrip(t, Size8)
}

// testRoundTrip verifies that Forward→Inverse recovers the residual within
// the ±1 rounding tolerance of the integer shift schedule.
func testRoundTrip(t *testing.T, n int) {
	t.Helper()
	for seed := int64(0); seed < 50; seed++ {
		src := randBlock(n, seed)
		coeffs := make([]int32, n*n)
		if err := Forward(n, src, coeffs); err != nil {
			t.Fatal(err)
		}
		back := make([]int32, n*n)
		if err := Inverse(n, coeffs, back); err != nil {
			t.Fatal(err)
		}
		for i := range src {
			d := src[i] - back[i]
			if d < -1 || d > 1 {
				t.Fatalf("seed %d: residual[%d] = %d, reconstructed %d (diff %d)", seed, i, src[i], back[i], d)
			}
		}
	}
}

func TestForwardDCCoefficient(t *testing.T) {
	// A constant block must put all energy in the DC coefficient.
	for _, n := range []int{Size4, Size8} {
		src := make([]int32, n*n)
		for i := range src {
			src[i] = 100
		}
		coeffs := make([]int32, n*n)
		if err := Forward(n, src, coeffs); err != nil {
			t.Fatal(err)
		}
		if coeffs[0] == 0 {
			t.Fatalf("n=%d: DC coefficient is zero", n)
		}
		for i := 1; i < n*n; i++ {
			if coeffs[i] != 0 {
				t.Fatalf("n=%d: AC coefficient %d = %d, want 0", n, i, coeffs[i])
			}
		}
		// The orthonormal 2-D DCT of a constant block x has DC = n·x, so
		// the integer transform yields n·x × forward gain — 12800 for both
		// sizes (100·4·32 and 100·8·16).
		want := int32(100 * float64(n) * forwardGain(n))
		if d := coeffs[0] - want; d < -2 || d > 2 {
			t.Fatalf("n=%d: DC = %d, want ≈%d", n, coeffs[0], want)
		}
	}
}

func TestForwardLinearity(t *testing.T) {
	// Property: T(a) + T(b) ≈ T(a+b) up to rounding of the shift stages.
	f := func(seedA, seedB int64) bool {
		n := Size8
		a := randBlock(n, seedA)
		b := randBlock(n, seedB)
		sum := make([]int32, n*n)
		for i := range sum {
			// Halve to stay in range.
			a[i] /= 2
			b[i] /= 2
			sum[i] = a[i] + b[i]
		}
		ca, cb, cs := make([]int32, n*n), make([]int32, n*n), make([]int32, n*n)
		if Forward(n, a, ca) != nil || Forward(n, b, cb) != nil || Forward(n, sum, cs) != nil {
			return false
		}
		for i := range cs {
			d := cs[i] - ca[i] - cb[i]
			if d < -4 || d > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTransformRejectsBadSizes(t *testing.T) {
	if err := Forward(5, make([]int32, 25), make([]int32, 25)); err == nil {
		t.Fatal("Forward accepted size 5")
	}
	if err := Forward(Size4, make([]int32, 15), make([]int32, 16)); err == nil {
		t.Fatal("Forward accepted short src")
	}
	if err := Inverse(Size8, make([]int32, 64), make([]int32, 63)); err == nil {
		t.Fatal("Inverse accepted short dst")
	}
}

func TestQstepDoubling(t *testing.T) {
	if got := Qstep(4); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Qstep(4) = %v, want 1", got)
	}
	for qp := MinQP; qp+6 <= MaxQP; qp++ {
		r := Qstep(qp+6) / Qstep(qp)
		if math.Abs(r-2) > 1e-9 {
			t.Fatalf("Qstep(%d+6)/Qstep(%d) = %v, want 2", qp, qp, r)
		}
	}
}

func TestNewQuantizerValidation(t *testing.T) {
	if _, err := NewQuantizer(Size4, -1, false); err == nil {
		t.Fatal("accepted QP -1")
	}
	if _, err := NewQuantizer(Size4, 52, false); err == nil {
		t.Fatal("accepted QP 52")
	}
	if _, err := NewQuantizer(6, 30, false); err == nil {
		t.Fatal("accepted size 6")
	}
}

func TestQuantizeZeroStaysZero(t *testing.T) {
	q, err := NewQuantizer(Size8, 32, false)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]int32, 64)
	dst := make([]int32, 64)
	if err := q.Quantize(src, dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("level[%d] = %d, want 0", i, v)
		}
	}
}

func TestQuantizeDequantizeBoundedError(t *testing.T) {
	// Property: the reconstruction error per coefficient is bounded by one
	// quantization step (scaled by the transform gain).
	for _, qp := range []int{22, 27, 32, 37, 42} {
		q, err := NewQuantizer(Size8, qp, false)
		if err != nil {
			t.Fatal(err)
		}
		step := Qstep(qp) * 16 // forward gain of 8×8
		for seed := int64(0); seed < 20; seed++ {
			src := randBlock(Size8, seed)
			// Scale up to plausible coefficient magnitudes.
			for i := range src {
				src[i] *= 16
			}
			lev := make([]int32, 64)
			rec := make([]int32, 64)
			if err := q.Quantize(src, lev); err != nil {
				t.Fatal(err)
			}
			if err := q.Dequantize(lev, rec); err != nil {
				t.Fatal(err)
			}
			for i := range src {
				if e := math.Abs(float64(src[i] - rec[i])); e > step+1 {
					t.Fatalf("QP %d seed %d: coeff %d error %v > step %v", qp, seed, i, e, step)
				}
			}
		}
	}
}

func TestHigherQPCoarser(t *testing.T) {
	// Higher QP must never produce more non-zero levels on the same data.
	src := randBlock(Size8, 99)
	prev := 1 << 30
	for _, qp := range []int{22, 27, 32, 37, 42} {
		q, err := NewQuantizer(Size8, qp, false)
		if err != nil {
			t.Fatal(err)
		}
		lev := make([]int32, 64)
		if err := q.Quantize(src, lev); err != nil {
			t.Fatal(err)
		}
		nz := 0
		for _, v := range lev {
			if v != 0 {
				nz++
			}
		}
		if nz > prev {
			t.Fatalf("QP %d has %d non-zeros, more than lower QP's %d", qp, nz, prev)
		}
		prev = nz
	}
}

func TestQuantizeSymmetry(t *testing.T) {
	// Property: Quantize(−c) == −Quantize(c).
	f := func(seed int64) bool {
		q, err := NewQuantizer(Size4, 30, true)
		if err != nil {
			return false
		}
		src := randBlock(Size4, seed)
		neg := make([]int32, len(src))
		for i := range src {
			neg[i] = -src[i]
		}
		a, b := make([]int32, len(src)), make([]int32, len(src))
		if q.Quantize(src, a) != nil || q.Quantize(neg, b) != nil {
			return false
		}
		for i := range a {
			if a[i] != -b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeAliasingAllowed(t *testing.T) {
	q, err := NewQuantizer(Size4, 27, false)
	if err != nil {
		t.Fatal(err)
	}
	src := randBlock(Size4, 7)
	ref := make([]int32, len(src))
	if err := q.Quantize(src, ref); err != nil {
		t.Fatal(err)
	}
	if err := q.Quantize(src, src); err != nil { // in place
		t.Fatal(err)
	}
	for i := range src {
		if src[i] != ref[i] {
			t.Fatalf("in-place quantize diverged at %d", i)
		}
	}
}
