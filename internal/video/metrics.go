package video

import (
	"fmt"
	"math"
)

// meanSquaredError returns the mean squared error between two planes of
// equal size.
func meanSquaredError(a, b *Plane) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("video: mse %dx%d vs %dx%d: %w", a.W, a.H, b.W, b.H, ErrSizeMismatch)
	}
	var sum uint64
	for y := 0; y < a.H; y++ {
		ra, rb := a.Row(y), b.Row(y)
		for x := range ra {
			d := int(ra[x]) - int(rb[x])
			sum += uint64(d * d)
		}
	}
	return float64(sum) / float64(a.W*a.H), nil
}

// PSNR returns the peak signal-to-noise ratio in dB between two planes.
// Identical planes return +Inf.
func PSNR(a, b *Plane) (float64, error) {
	mse, err := meanSquaredError(a, b)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

// CapPSNR bounds a possibly infinite PSNR for aggregation: lossless blocks
// are conventionally counted at cap dB (commonly 100) so that sequence
// averages stay finite.
func CapPSNR(psnr, cap float64) float64 {
	if math.IsInf(psnr, 1) || psnr > cap {
		return cap
	}
	return psnr
}

// SAD returns the sum of absolute differences between two equally sized
// planes: the tests' bit-exactness oracle, where a non-zero sum names a
// differing sample. The motion package has its own hot-path SAD over
// sub-windows.
func SAD(a, b *Plane) (int64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("video: sad %dx%d vs %dx%d: %w", a.W, a.H, b.W, b.H, ErrSizeMismatch)
	}
	var sum int64
	for y := 0; y < a.H; y++ {
		ra, rb := a.Row(y), b.Row(y)
		for x := range ra {
			d := int(ra[x]) - int(rb[x])
			if d < 0 {
				d = -d
			}
			sum += int64(d)
		}
	}
	return sum, nil
}

// ClampU8 clamps an int to the 8-bit sample range.
func ClampU8(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}
