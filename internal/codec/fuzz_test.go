package codec

import (
	"testing"
	"testing/quick"

	"repro/internal/tiling"
	"repro/internal/video"
)

// TestDecoderSurvivesRandomPayloads feeds pseudo-random bytes as tile
// payloads: the decoder must either return an error or decode something —
// never panic or loop. (Malformed input reaching a telemedicine decoder
// is a when, not an if.)
func TestDecoderSurvivesRandomPayloads(t *testing.T) {
	cfg := smallConfig()
	grid := tiling.MustUniform(128, 96, 2, 2)
	f := func(seed int64, n uint16, ftypeBit bool) bool {
		// Deterministic garbage of plausible length.
		size := int(n%2048) + 1
		payload := make([]byte, size)
		s := uint64(seed)
		for i := range payload {
			s = s*6364136223846793005 + 1442695040888963407
			payload[i] = byte(s >> 56)
		}
		dec, err := NewDecoder(cfg)
		if err != nil {
			return false
		}
		ftype := FrameI
		if ftypeBit {
			// Give P-frames a reference so parsing proceeds past the check.
			seq := quickSequence(128, 96)
			enc, _ := NewEncoder(cfg)
			_, bs, err := enc.EncodeFrame(seq, grid, uniformParams(4, 30))
			if err != nil {
				return false
			}
			if _, err := dec.DecodeFrame(bs, grid); err != nil {
				return false
			}
			ftype = FrameP
		}
		bs := &Bitstream{Type: ftype, Tiles: [][]byte{payload, payload, payload, payload}}
		// Must return (decoded or error) without panicking.
		_, _ = dec.DecodeFrame(bs, grid)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// quickSequence builds a single structured frame without the medgen
// dependency weight (content is irrelevant for the fuzz reference).
func quickSequence(w, h int) *video.Frame {
	f := video.NewFrame(w, h)
	for y := 0; y < h; y++ {
		row := f.Y.Row(y)
		for x := range row {
			row[x] = uint8((x*7 + y*13) % 251)
		}
	}
	return f
}

// FuzzDecodeBitstream hands the decoder arbitrary bytes as one tile's
// payload, in an I-frame and in a P-frame whose other tiles (and reference
// picture) are the real thing. The contract: an error or a picture — never
// a panic, a hang, or a sample outside the frame. Seeded from really
// encoded tiles, so mutations start from streams that parse deep.
func FuzzDecodeBitstream(f *testing.F) {
	cfg := smallConfig()
	grid := tiling.MustUniform(cfg.Width, cfg.Height, 2, 2)
	enc, err := NewEncoder(cfg)
	if err != nil {
		f.Fatal(err)
	}
	_, intra, err := enc.EncodeFrame(quickSequence(cfg.Width, cfg.Height), grid, uniformParams(4, 30))
	if err != nil {
		f.Fatal(err)
	}
	moved := quickSequence(cfg.Width, cfg.Height)
	for y := 0; y < moved.Y.H; y++ {
		row := moved.Y.Row(y)
		copy(row, row[2:]) // a two-sample pan: the P-frame carries real vectors
	}
	_, inter, err := enc.EncodeFrame(moved, grid, uniformParams(4, 30))
	if err != nil {
		f.Fatal(err)
	}
	if intra.Type != FrameI || inter.Type != FrameP {
		f.Fatalf("seed frames are %v and %v, want I then P", intra.Type, inter.Type)
	}
	for tile := range grid.Tiles {
		f.Add(intra.Tiles[tile], false, uint8(tile))
		f.Add(inter.Tiles[tile], true, uint8(tile))
	}
	f.Fuzz(func(t *testing.T, payload []byte, pframe bool, tile uint8) {
		dec, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		real := intra
		if pframe {
			if _, err := dec.DecodeFrame(intra, grid); err != nil {
				t.Fatalf("the real I-frame does not decode: %v", err)
			}
			real = inter
		}
		bs := &Bitstream{Type: real.Type, Tiles: append([][]byte(nil), real.Tiles...)}
		bs.Tiles[int(tile)%len(bs.Tiles)] = payload
		frame, err := dec.DecodeFrame(bs, grid)
		if err == nil && (frame.Width() != cfg.Width || frame.Height() != cfg.Height) {
			t.Fatalf("decoded a %dx%d picture from a %dx%d stream", frame.Width(), frame.Height(), cfg.Width, cfg.Height)
		}
	})
}
