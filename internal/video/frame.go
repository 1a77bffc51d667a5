package video

import (
	"fmt"
	"io"
)

// Frame is a YUV 4:2:0 picture. The chroma planes are half the luma
// resolution in each dimension. All of the content-analysis and encoding in
// this repository operates on luma; chroma is carried for completeness and
// round-trips through the YUV I/O helpers.
type Frame struct {
	Y, Cb, Cr *Plane
	// Number is the display order index within the sequence (0-based).
	Number int
	// PTS is the presentation time in seconds at the sequence frame rate.
	PTS float64
}

// NewFrame allocates a zeroed YUV 4:2:0 frame. Width and height must be
// even so that the subsampled chroma planes are well defined.
func NewFrame(w, h int) *Frame {
	if w%2 != 0 || h%2 != 0 {
		panic(fmt.Sprintf("video: frame size %dx%d must be even for 4:2:0", w, h))
	}
	return &Frame{
		Y:  NewPlane(w, h),
		Cb: NewPlane(w/2, h/2),
		Cr: NewPlane(w/2, h/2),
	}
}

// Reset clears the frame's metadata (Number, PTS) so a recycled buffer
// starts like a fresh NewFrame. Pixel data is left untouched: a reuser
// must overwrite every sample it later reads. Pools
// (e.g. the encoder's reconstruction recycling) rely on this being cheap.
func (f *Frame) Reset() {
	f.Number = 0
	f.PTS = 0
}

// CanReuse reports whether the frame can serve as a recycled w×h buffer:
// the geometry must match exactly (planes are never resized in place).
func (f *Frame) CanReuse(w, h int) bool {
	return f != nil && f.Width() == w && f.Height() == h
}

// Width returns the luma width.
func (f *Frame) Width() int { return f.Y.W }

// Height returns the luma height.
func (f *Frame) Height() int { return f.Y.H }

// WriteYUV appends the frame in planar I420 layout (Y then Cb then Cr,
// compact rows) to w, e.g. for inspection with external raw-YUV players.
func (f *Frame) WriteYUV(w io.Writer) error {
	for _, p := range []*Plane{f.Y, f.Cb, f.Cr} {
		for y := 0; y < p.H; y++ {
			if _, err := w.Write(p.Row(y)); err != nil {
				return fmt.Errorf("video: write yuv: %w", err)
			}
		}
	}
	return nil
}

// ReadYUV reads one planar I420 frame of the given luma dimensions from r.
// It returns io.ErrUnexpectedEOF if the stream ends mid-frame and io.EOF if
// it ends cleanly before any byte of the frame.
func ReadYUV(r io.Reader, w, h int) (*Frame, error) {
	f := NewFrame(w, h)
	first := true
	for _, p := range []*Plane{f.Y, f.Cb, f.Cr} {
		for y := 0; y < p.H; y++ {
			if _, err := io.ReadFull(r, p.Row(y)); err != nil {
				if err == io.EOF && first {
					return nil, io.EOF
				}
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return nil, err
			}
			first = false
		}
	}
	return f, nil
}

// Sequence is an ordered list of frames sharing one geometry and frame rate.
type Sequence struct {
	Frames []*Frame
	FPS    float64
}

// NewSequence wraps frames with a frame rate, assigning Number and PTS.
func NewSequence(fps float64, frames ...*Frame) *Sequence {
	s := &Sequence{Frames: frames, FPS: fps}
	for i, f := range frames {
		f.Number = i
		if fps > 0 {
			f.PTS = float64(i) / fps
		}
	}
	return s
}
