// Package entropy implements the bitstream layer of the codec: MSB-first
// bit I/O, unsigned/signed Exp-Golomb codes (the HEVC ue(v)/se(v) syntax
// elements), zig-zag coefficient scanning and run-level coefficient block
// coding. Every encoder has an exactly matching decoder, which the test
// suite exercises with property-based round trips.
package entropy

import (
	"errors"
	"fmt"
)

// errTruncated reports that a read ran past the end of the bitstream.
var errTruncated = errors.New("entropy: truncated bitstream")

// BitWriter accumulates bits MSB-first into a byte buffer.
type BitWriter struct {
	buf  []byte
	cur  uint8
	nCur uint // bits currently held in cur (0..7)
	bits int  // total bits written
}

// NewBitWriter returns an empty writer.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// Reset returns the writer to the empty state while keeping the byte
// buffer's capacity, so pooled writers append without reallocating. Any
// stale bytes beyond the reset length are unreachable: every byte of a
// subsequent Bytes() result is produced by post-Reset writes.
func (w *BitWriter) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.nCur = 0, 0
	w.bits = 0
}

// WriteBit appends a single bit (0 or 1).
func (w *BitWriter) WriteBit(b uint) {
	w.cur = w.cur<<1 | uint8(b&1)
	w.nCur++
	w.bits++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first. n may be 0.
func (w *BitWriter) WriteBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(uint(v >> uint(i) & 1))
	}
}

// Len returns the number of bits written so far.
func (w *BitWriter) Len() int { return w.bits }

// Bytes flushes (zero-padding the final partial byte) and returns the
// buffer. The writer remains usable; further writes continue the stream
// conceptually but callers normally call Bytes once at the end.
func (w *BitWriter) Bytes() []byte {
	out := make([]byte, len(w.buf), len(w.buf)+1)
	copy(out, w.buf)
	if w.nCur > 0 {
		out = append(out, w.cur<<(8-w.nCur))
	}
	return out
}

// BitReader consumes bits MSB-first from a byte slice.
type BitReader struct {
	buf  []byte
	pos  int  // byte index
	nRem uint // bits remaining in the current byte (0..8)
}

// NewBitReader wraps buf.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf, nRem: 8} }

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (uint, error) {
	if r.pos >= len(r.buf) {
		return 0, errTruncated
	}
	r.nRem--
	b := uint(r.buf[r.pos]>>r.nRem) & 1
	if r.nRem == 0 {
		r.pos++
		r.nRem = 8
	}
	return b, nil
}

// readBits returns the next n bits as the low bits of a uint64 (n ≤ 64).
func (r *BitReader) readBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("entropy: readBits(%d) > 64", n)
	}
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// WriteUE appends an unsigned Exp-Golomb code (HEVC ue(v)).
func (w *BitWriter) WriteUE(v uint32) {
	x := uint64(v) + 1
	n := bitLen(x)
	w.WriteBits(0, n-1) // n−1 leading zeros
	w.WriteBits(x, n)
}

// ReadUE reads an unsigned Exp-Golomb code.
func (r *BitReader) ReadUE() (uint32, error) {
	var zeros uint
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 32 {
			return 0, fmt.Errorf("entropy: ue(v) prefix too long")
		}
	}
	rest, err := r.readBits(zeros)
	if err != nil {
		return 0, err
	}
	return uint32(1<<zeros + rest - 1), nil
}

// WriteSE appends a signed Exp-Golomb code (HEVC se(v)): 0, 1, −1, 2, −2 …
func (w *BitWriter) WriteSE(v int32) {
	w.WriteUE(seToUE(v))
}

// ReadSE reads a signed Exp-Golomb code.
func (r *BitReader) ReadSE() (int32, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	return ueToSE(u), nil
}

// seToUE maps a signed value to its unsigned code index.
func seToUE(v int32) uint32 {
	if v <= 0 {
		return uint32(-2 * int64(v))
	}
	return uint32(2*int64(v) - 1)
}

// ueToSE is the inverse of seToUE.
func ueToSE(u uint32) int32 {
	if u%2 == 0 {
		return int32(-(int64(u) / 2))
	}
	return int32((int64(u) + 1) / 2)
}

// bitLen returns the position of the highest set bit (1-based); bitLen(1)=1.
func bitLen(x uint64) uint {
	var n uint
	for x > 0 {
		n++
		x >>= 1
	}
	return n
}
