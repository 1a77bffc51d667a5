// Package video provides the raw-video substrate for the transcoding
// framework: luma/chroma sample planes, YUV 4:2:0 frames, quality metrics
// (MSE, PSNR) and simple plane arithmetic. All sample data is 8-bit.
package video

import (
	"errors"
	"fmt"
	"math"
)

// Plane is a rectangular grid of 8-bit samples. Pix is stored row-major
// with the given Stride, which may exceed W to describe a sub-window of a
// larger plane without copying.
type Plane struct {
	W, H   int
	Stride int
	Pix    []uint8
}

// NewPlane allocates a zeroed W×H plane with Stride == W.
func NewPlane(w, h int) *Plane {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("video: invalid plane size %dx%d", w, h))
	}
	return &Plane{W: w, H: h, Stride: w, Pix: make([]uint8, w*h)}
}

// At returns the sample at (x, y). It panics if out of range, matching
// slice-index semantics.
func (p *Plane) At(x, y int) uint8 { return p.Pix[y*p.Stride+x] }

// Set stores v at (x, y).
func (p *Plane) Set(x, y int, v uint8) { p.Pix[y*p.Stride+x] = v }

// Row returns the y-th row as a slice of length W aliasing the plane.
func (p *Plane) Row(y int) []uint8 { return p.Pix[y*p.Stride : y*p.Stride+p.W] }

// Clone returns a deep copy with a compact stride.
func (p *Plane) Clone() *Plane {
	q := NewPlane(p.W, p.H)
	for y := 0; y < p.H; y++ {
		copy(q.Row(y), p.Row(y))
	}
	return q
}

// SubPlane returns a view of the w×h window at (x, y) sharing storage with
// p. Mutating the view mutates p.
func (p *Plane) SubPlane(x, y, w, h int) (*Plane, error) {
	if x < 0 || y < 0 || w <= 0 || h <= 0 || x+w > p.W || y+h > p.H {
		return nil, fmt.Errorf("video: subplane %dx%d@(%d,%d) outside %dx%d", w, h, x, y, p.W, p.H)
	}
	return &Plane{W: w, H: h, Stride: p.Stride, Pix: p.Pix[y*p.Stride+x:]}, nil
}

// Fill sets every sample to v.
func (p *Plane) Fill(v uint8) {
	for y := 0; y < p.H; y++ {
		row := p.Row(y)
		for x := range row {
			row[x] = v
		}
	}
}

// CopyFrom copies src into p. Both planes must have identical dimensions.
func (p *Plane) CopyFrom(src *Plane) error {
	if p.W != src.W || p.H != src.H {
		return fmt.Errorf("video: copy size mismatch %dx%d vs %dx%d", p.W, p.H, src.W, src.H)
	}
	for y := 0; y < p.H; y++ {
		copy(p.Row(y), src.Row(y))
	}
	return nil
}

// MeanStddev returns the mean and (population) standard deviation of the
// samples in one pass. A constant plane has stddev 0.
func (p *Plane) MeanStddev() (mean, stddev float64) {
	var sum, sumSq uint64
	for y := 0; y < p.H; y++ {
		row := p.Row(y)
		for _, v := range row {
			sum += uint64(v)
			sumSq += uint64(v) * uint64(v)
		}
	}
	n := float64(p.W * p.H)
	mean = float64(sum) / n
	variance := float64(sumSq)/n - mean*mean
	if variance < 0 { // numerical guard
		variance = 0
	}
	return mean, math.Sqrt(variance)
}

// Max returns the maximum sample value and one of its coordinates.
func (p *Plane) Max() (v uint8, x, y int) {
	for yy := 0; yy < p.H; yy++ {
		row := p.Row(yy)
		for xx, s := range row {
			if s > v {
				v, x, y = s, xx, yy
			}
		}
	}
	return v, x, y
}

// ErrSizeMismatch reports that two planes or frames had different sizes.
var ErrSizeMismatch = errors.New("video: size mismatch")
