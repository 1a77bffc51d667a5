package entropy

import (
	"testing"
	"testing/quick"
)

// UEBits returns the length in bits of the ue(v) code for v without
// encoding it: the oracle the round-trip properties check written lengths
// against.
func UEBits(v uint32) int {
	n := bitLen(uint64(v) + 1)
	return int(2*n - 1)
}

// SEBits returns the length of the se(v) code for v.
func SEBits(v int32) int { return UEBits(seToUE(v)) }

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := NewBitWriter()
	w.WriteBit(1)
	w.WriteBit(0)
	w.WriteBits(0b1101, 4)
	w.WriteBits(0xABCD, 16)
	if w.Len() != 22 {
		t.Fatalf("Len = %d, want 22", w.Len())
	}
	r := NewBitReader(w.Bytes())
	if b, _ := r.ReadBit(); b != 1 {
		t.Fatal("first bit")
	}
	if b, _ := r.ReadBit(); b != 0 {
		t.Fatal("second bit")
	}
	if v, _ := r.readBits(4); v != 0b1101 {
		t.Fatalf("nibble = %b", v)
	}
	if v, _ := r.readBits(16); v != 0xABCD {
		t.Fatalf("word = %x", v)
	}
}

func TestBitReaderTruncated(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.readBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != errTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestBitsPaddingZero(t *testing.T) {
	w := NewBitWriter()
	w.WriteBits(0b101, 3)
	b := w.Bytes()
	if len(b) != 1 {
		t.Fatalf("len = %d", len(b))
	}
	if b[0] != 0b10100000 {
		t.Fatalf("padded byte = %08b", b[0])
	}
}

func TestWriterReusableAfterBytes(t *testing.T) {
	w := NewBitWriter()
	w.WriteBits(0xA, 4)
	_ = w.Bytes()
	w.WriteBits(0xB, 4)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0xAB {
		t.Fatalf("bytes = %x, want ab", b)
	}
}

func TestUEKnownCodes(t *testing.T) {
	// Standard Exp-Golomb examples: 0→"1", 1→"010", 2→"011", 3→"00100".
	cases := []struct {
		v    uint32
		bits int
	}{{0, 1}, {1, 3}, {2, 3}, {3, 5}, {4, 5}, {5, 5}, {6, 5}, {7, 7}, {255, 17}}
	for _, c := range cases {
		w := NewBitWriter()
		w.WriteUE(c.v)
		if w.Len() != c.bits {
			t.Errorf("ue(%d) length = %d, want %d", c.v, w.Len(), c.bits)
		}
		if got := UEBits(c.v); got != c.bits {
			t.Errorf("UEBits(%d) = %d, want %d", c.v, got, c.bits)
		}
		r := NewBitReader(w.Bytes())
		got, err := r.ReadUE()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.v {
			t.Errorf("ue round trip %d → %d", c.v, got)
		}
	}
}

func TestSEMapping(t *testing.T) {
	// se(v) order: 0, 1, −1, 2, −2, 3, −3 …
	order := []int32{0, 1, -1, 2, -2, 3, -3, 4, -4}
	for u, v := range order {
		if got := seToUE(v); got != uint32(u) {
			t.Errorf("seToUE(%d) = %d, want %d", v, got, u)
		}
		if got := ueToSE(uint32(u)); got != v {
			t.Errorf("ueToSE(%d) = %d, want %d", u, got, v)
		}
	}
}

func TestUERoundTripProperty(t *testing.T) {
	f := func(v uint32) bool {
		v %= 1 << 24
		w := NewBitWriter()
		w.WriteUE(v)
		r := NewBitReader(w.Bytes())
		got, err := r.ReadUE()
		return err == nil && got == v && w.Len() == UEBits(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSERoundTripProperty(t *testing.T) {
	f := func(v int32) bool {
		v %= 1 << 22
		w := NewBitWriter()
		w.WriteSE(v)
		r := NewBitReader(w.Bytes())
		got, err := r.ReadSE()
		return err == nil && got == v && w.Len() == SEBits(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSequenceOfCodesRoundTrip(t *testing.T) {
	w := NewBitWriter()
	values := []int32{0, -5, 17, 2, -300, 99999, 1, -1}
	for _, v := range values {
		w.WriteSE(v)
	}
	r := NewBitReader(w.Bytes())
	for i, want := range values {
		got, err := r.ReadSE()
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("value %d = %d, want %d", i, got, want)
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	for _, n := range []int{4, 8} {
		scan, err := scanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(scan) != n*n {
			t.Fatalf("n=%d scan length %d", n, len(scan))
		}
		seen := make(map[int]bool)
		for _, idx := range scan {
			if idx < 0 || idx >= n*n || seen[idx] {
				t.Fatalf("n=%d: bad or duplicate index %d", n, idx)
			}
			seen[idx] = true
		}
	}
}

func TestZigzag4KnownPrefix(t *testing.T) {
	// Classic zig-zag for 4×4 starts: (0,0) (0,1) (1,0) (2,0) (1,1) (0,2)…
	want := []int{0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15}
	for i, idx := range zigzag4 {
		if idx != want[i] {
			t.Fatalf("zigzag4[%d] = %d, want %d (full %v)", i, idx, want[i], zigzag4)
		}
	}
}

func TestCoeffBlockRoundTripAllZero(t *testing.T) {
	w := NewBitWriter()
	coeffs := make([]int32, 64)
	if err := EncodeCoeffBlock(w, 8, coeffs); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1 {
		t.Fatalf("all-zero block costs %d bits, want 1", w.Len())
	}
	got := make([]int32, 64)
	got[3] = 99 // must be overwritten
	if err := DecodeCoeffBlock(NewBitReader(w.Bytes()), 8, got); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("coeff %d = %d, want 0", i, v)
		}
	}
}

func TestCoeffBlockRoundTripProperty(t *testing.T) {
	f := func(seed int64, dense bool) bool {
		coeffs := make([]int32, 16)
		s := uint64(seed)
		for i := range coeffs {
			s = s*6364136223846793005 + 1442695040888963407
			if dense || s%3 == 0 {
				coeffs[i] = int32(s%41) - 20
			}
		}
		w := NewBitWriter()
		if err := EncodeCoeffBlock(w, 4, coeffs); err != nil {
			return false
		}
		got := make([]int32, 16)
		if err := DecodeCoeffBlock(NewBitReader(w.Bytes()), 4, got); err != nil {
			return false
		}
		for i := range coeffs {
			if coeffs[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCoeffBlockRejectsBadInput(t *testing.T) {
	w := NewBitWriter()
	if err := EncodeCoeffBlock(w, 8, make([]int32, 63)); err == nil {
		t.Fatal("accepted short block")
	}
	if err := EncodeCoeffBlock(w, 5, make([]int32, 25)); err == nil {
		t.Fatal("accepted size 5")
	}
}

func TestDecodeCoeffBlockCorruptStream(t *testing.T) {
	// A stream declaring more significant coefficients than fit must error,
	// not panic or loop.
	w := NewBitWriter()
	w.WriteUE(17) // 17 > 16 for a 4×4 block
	got := make([]int32, 16)
	if err := DecodeCoeffBlock(NewBitReader(w.Bytes()), 4, got); err == nil {
		t.Fatal("accepted overfull block")
	}
	// Runs overflowing the block must error too.
	w2 := NewBitWriter()
	w2.WriteUE(1)  // one significant coefficient
	w2.WriteUE(16) // run of 16 → position 16 out of range
	w2.WriteSE(5)
	if err := DecodeCoeffBlock(NewBitReader(w2.Bytes()), 4, got); err == nil {
		t.Fatal("accepted overflowing run")
	}
}

func TestMoreCoefficientsCostMoreBits(t *testing.T) {
	sparse := make([]int32, 64)
	sparse[0] = 10
	dense := make([]int32, 64)
	for i := 0; i < 32; i++ {
		dense[i] = 10
	}
	bits := func(coeffs []int32) int {
		w := NewBitWriter()
		if err := EncodeCoeffBlock(w, 8, coeffs); err != nil {
			t.Fatal(err)
		}
		return w.Len()
	}
	cs, cd := bits(sparse), bits(dense)
	if cd <= cs {
		t.Fatalf("dense block %d bits ≤ sparse %d bits", cd, cs)
	}
}
