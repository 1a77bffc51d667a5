package video

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestNewPlaneZeroed(t *testing.T) {
	p := NewPlane(7, 5)
	if p.W != 7 || p.H != 5 || p.Stride != 7 {
		t.Fatalf("geometry = %d %d %d, want 7 5 7", p.W, p.H, p.Stride)
	}
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			if p.At(x, y) != 0 {
				t.Fatalf("sample (%d,%d) = %d, want 0", x, y, p.At(x, y))
			}
		}
	}
}

func TestNewPlanePanicsOnBadSize(t *testing.T) {
	for _, dims := range [][2]int{{0, 4}, {4, 0}, {-1, 4}, {4, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPlane(%d, %d) did not panic", dims[0], dims[1])
				}
			}()
			NewPlane(dims[0], dims[1])
		}()
	}
}

func TestPlaneSetAt(t *testing.T) {
	p := NewPlane(4, 3)
	p.Set(2, 1, 200)
	if got := p.At(2, 1); got != 200 {
		t.Fatalf("At(2,1) = %d, want 200", got)
	}
	if got := p.At(1, 2); got != 0 {
		t.Fatalf("At(1,2) = %d, want 0", got)
	}
}

func TestPlaneRowAliases(t *testing.T) {
	p := NewPlane(4, 3)
	row := p.Row(1)
	row[3] = 77
	if got := p.At(3, 1); got != 77 {
		t.Fatalf("row write not visible: At(3,1) = %d", got)
	}
	if len(row) != 4 {
		t.Fatalf("row length = %d, want 4", len(row))
	}
}

func TestPlaneCloneIndependent(t *testing.T) {
	p := NewPlane(3, 3)
	p.Fill(9)
	q := p.Clone()
	q.Set(0, 0, 1)
	if p.At(0, 0) != 9 {
		t.Fatal("clone shares storage with original")
	}
	if q.Stride != q.W {
		t.Fatalf("clone stride = %d, want compact %d", q.Stride, q.W)
	}
}

func TestSubPlaneViewsShareStorage(t *testing.T) {
	p := NewPlane(8, 8)
	sp, err := p.SubPlane(2, 3, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sp.Set(0, 0, 42)
	if got := p.At(2, 3); got != 42 {
		t.Fatalf("subplane write not visible in parent: %d", got)
	}
	if sp.At(1, 1) != p.At(3, 4) {
		t.Fatal("subplane indexing misaligned")
	}
}

func TestSubPlaneBounds(t *testing.T) {
	p := NewPlane(8, 8)
	cases := [][4]int{{-1, 0, 4, 4}, {0, -1, 4, 4}, {5, 0, 4, 4}, {0, 5, 4, 4}, {0, 0, 0, 4}, {0, 0, 9, 1}}
	for _, c := range cases {
		if _, err := p.SubPlane(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("SubPlane(%v) succeeded, want error", c)
		}
	}
}

func TestCopyFromMismatch(t *testing.T) {
	p, q := NewPlane(4, 4), NewPlane(5, 4)
	if err := p.CopyFrom(q); err == nil {
		t.Fatal("CopyFrom with mismatched sizes succeeded")
	}
}

func TestMeanStddevConstantPlane(t *testing.T) {
	p := NewPlane(16, 16)
	p.Fill(77)
	mean, stddev := p.MeanStddev()
	if mean != 77 || stddev != 0 {
		t.Fatalf("mean=%v stddev=%v, want 77 0", mean, stddev)
	}
}

func TestMeanStddevKnownValues(t *testing.T) {
	p := NewPlane(2, 1)
	p.Set(0, 0, 10)
	p.Set(1, 0, 20)
	mean, stddev := p.MeanStddev()
	if mean != 15 {
		t.Fatalf("mean = %v, want 15", mean)
	}
	if math.Abs(stddev-5) > 1e-9 {
		t.Fatalf("stddev = %v, want 5", stddev)
	}
}

func TestMaxFindsCoordinates(t *testing.T) {
	p := NewPlane(5, 5)
	p.Set(3, 4, 250)
	v, x, y := p.Max()
	if v != 250 || x != 3 || y != 4 {
		t.Fatalf("Max = %d@(%d,%d), want 250@(3,4)", v, x, y)
	}
}

func TestMSEAndPSNR(t *testing.T) {
	a, b := NewPlane(4, 4), NewPlane(4, 4)
	a.Fill(100)
	b.Fill(110)
	mse, err := meanSquaredError(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if mse != 100 {
		t.Fatalf("MSE = %v, want 100", mse)
	}
	psnr, err := PSNR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * math.Log10(255*255/100.0)
	if math.Abs(psnr-want) > 1e-9 {
		t.Fatalf("PSNR = %v, want %v", psnr, want)
	}
}

func TestPSNRIdenticalIsInf(t *testing.T) {
	a := NewPlane(4, 4)
	a.Fill(42)
	psnr, err := PSNR(a, a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(psnr, 1) {
		t.Fatalf("PSNR identical = %v, want +Inf", psnr)
	}
	if got := CapPSNR(psnr, 100); got != 100 {
		t.Fatalf("CapPSNR = %v, want 100", got)
	}
}

func TestSADAgainstManual(t *testing.T) {
	a, b := NewPlane(2, 2), NewPlane(2, 2)
	a.Set(0, 0, 10)
	b.Set(0, 0, 3)
	a.Set(1, 1, 5)
	b.Set(1, 1, 9)
	got, err := SAD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Fatalf("SAD = %d, want 11", got)
	}
}

func TestClampU8(t *testing.T) {
	cases := []struct {
		in   int
		want uint8
	}{{-1, 0}, {0, 0}, {128, 128}, {255, 255}, {256, 255}, {1000, 255}, {-1000, 0}}
	for _, c := range cases {
		if got := ClampU8(c.in); got != c.want {
			t.Errorf("ClampU8(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestMeanStddevPropertyBounds(t *testing.T) {
	// Property: stddev is non-negative and ≤ 127.5 (max for 8-bit data),
	// and mean lies within [min, max] of the samples.
	f := func(seed uint8, w8, h8 uint8) bool {
		w, h := int(w8%16)+1, int(h8%16)+1
		p := NewPlane(w, h)
		v := seed
		lo, hi := uint8(255), uint8(0)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v = v*31 + 7
				p.Set(x, y, v)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		mean, stddev := p.MeanStddev()
		return stddev >= 0 && stddev <= 127.5 && mean >= float64(lo)-1e-9 && mean <= float64(hi)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameYUVRoundTrip(t *testing.T) {
	f := NewFrame(16, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 16; x++ {
			f.Y.Set(x, y, uint8(x+y*16))
		}
	}
	f.Cb.Fill(90)
	f.Cr.Fill(200)
	var buf bytes.Buffer
	if err := f.WriteYUV(&buf); err != nil {
		t.Fatal(err)
	}
	wantLen := 16*8 + 2*(8*4)
	if buf.Len() != wantLen {
		t.Fatalf("yuv length = %d, want %d", buf.Len(), wantLen)
	}
	g, err := ReadYUV(&buf, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sad, _ := SAD(f.Y, g.Y); sad != 0 {
		t.Fatal("luma did not round-trip")
	}
	if g.Cb.At(0, 0) != 90 || g.Cr.At(3, 3) != 200 {
		t.Fatal("chroma did not round-trip")
	}
}

func TestReadYUVEOF(t *testing.T) {
	if _, err := ReadYUV(bytes.NewReader(nil), 16, 8); err != io.EOF {
		t.Fatalf("empty stream error = %v, want io.EOF", err)
	}
	short := make([]byte, 16*8/2) // half a luma plane
	if _, err := ReadYUV(bytes.NewReader(short), 16, 8); err != io.ErrUnexpectedEOF {
		t.Fatalf("short stream error = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestNewFramePanicsOnOddSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFrame(15, 8) did not panic")
		}
	}()
	NewFrame(15, 8)
}

// Validate checks that all frames share one geometry.
func (s *Sequence) Validate() error {
	if len(s.Frames) == 0 {
		return nil
	}
	w, h := s.Frames[0].Width(), s.Frames[0].Height()
	for i, f := range s.Frames {
		if f.Width() != w || f.Height() != h {
			return fmt.Errorf("video: frame %d is %dx%d, want %dx%d: %w", i, f.Width(), f.Height(), w, h, ErrSizeMismatch)
		}
	}
	return nil
}

func TestSequenceNumbersAndPTS(t *testing.T) {
	s := NewSequence(24, NewFrame(4, 4), NewFrame(4, 4), NewFrame(4, 4))
	if s.Frames[2].Number != 2 {
		t.Fatalf("frame 2 number = %d", s.Frames[2].Number)
	}
	if math.Abs(s.Frames[1].PTS-1.0/24) > 1e-12 {
		t.Fatalf("frame 1 PTS = %v", s.Frames[1].PTS)
	}
	if math.Abs(s.Frames[2].PTS-2.0/24) > 1e-12 {
		t.Fatalf("last frame PTS = %v", s.Frames[2].PTS)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSequenceValidateMismatch(t *testing.T) {
	s := NewSequence(24, NewFrame(4, 4), NewFrame(8, 4))
	if err := s.Validate(); err == nil {
		t.Fatal("mismatched sequence validated")
	}
}
