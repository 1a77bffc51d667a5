package entropy

import "fmt"

// zigzag4 and zigzag8 map scan order → raster index for the diagonal scan.
var (
	zigzag4 = buildZigzag(4)
	zigzag8 = buildZigzag(8)
)

// buildZigzag produces the classic up-right diagonal scan for an n×n block.
func buildZigzag(n int) []int {
	order := make([]int, 0, n*n)
	for s := 0; s < 2*n-1; s++ {
		if s%2 == 0 { // walk up-right
			y := s
			if y > n-1 {
				y = n - 1
			}
			x := s - y
			for x < n && y >= 0 {
				order = append(order, y*n+x)
				x++
				y--
			}
		} else { // walk down-left
			x := s
			if x > n-1 {
				x = n - 1
			}
			y := s - x
			for y < n && x >= 0 {
				order = append(order, y*n+x)
				y++
				x--
			}
		}
	}
	return order
}

// scanFor returns the zig-zag order for block size n (4 or 8).
func scanFor(n int) ([]int, error) {
	switch n {
	case 4:
		return zigzag4, nil
	case 8:
		return zigzag8, nil
	default:
		return nil, fmt.Errorf("entropy: unsupported block size %d", n)
	}
}

// EncodeCoeffBlock writes an n×n quantized coefficient block (raster order)
// as: ue(number of significant coefficients in scan order, possibly 0),
// then for each significant coefficient ue(zero-run since the previous one)
// followed by se(level). This run-level scheme approximates the rate
// behaviour of CABAC residual coding (cost grows with coefficient count and
// magnitude, trailing zeros are nearly free) while remaining exactly
// decodable.
func EncodeCoeffBlock(w *BitWriter, n int, coeffs []int32) error {
	scan, err := scanFor(n)
	if err != nil {
		return err
	}
	if len(coeffs) != n*n {
		return fmt.Errorf("entropy: coeff block length %d, want %d", len(coeffs), n*n)
	}
	// Count significant coefficients.
	var nsig uint32
	for _, idx := range scan {
		if coeffs[idx] != 0 {
			nsig++
		}
	}
	w.WriteUE(nsig)
	run := uint32(0)
	for _, idx := range scan {
		c := coeffs[idx]
		if c == 0 {
			run++
			continue
		}
		w.WriteUE(run)
		w.WriteSE(c)
		run = 0
	}
	return nil
}

// DecodeCoeffBlock reads a block written by EncodeCoeffBlock into coeffs
// (raster order, length n*n, fully overwritten).
func DecodeCoeffBlock(r *BitReader, n int, coeffs []int32) error {
	scan, err := scanFor(n)
	if err != nil {
		return err
	}
	if len(coeffs) != n*n {
		return fmt.Errorf("entropy: coeff block length %d, want %d", len(coeffs), n*n)
	}
	for i := range coeffs {
		coeffs[i] = 0
	}
	nsig, err := r.ReadUE()
	if err != nil {
		return err
	}
	if int(nsig) > n*n {
		return fmt.Errorf("entropy: %d significant coefficients in %dx%d block", nsig, n, n)
	}
	pos := 0
	for k := uint32(0); k < nsig; k++ {
		run, err := r.ReadUE()
		if err != nil {
			return err
		}
		pos += int(run)
		if pos >= len(scan) {
			return fmt.Errorf("entropy: coefficient run overflows block")
		}
		level, err := r.ReadSE()
		if err != nil {
			return err
		}
		if level == 0 {
			return fmt.Errorf("entropy: zero level coded as significant")
		}
		coeffs[scan[pos]] = level
		pos++
	}
	return nil
}
