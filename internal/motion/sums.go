package motion

import (
	"sync"

	"repro/internal/video"
)

// SumTable is a summed-area table of one reference plane: the sum of any
// block of it in four lookups. TZ search uses it for successive
// elimination (Li & Salari, IEEE TIP 1995): |Σcur − Σref| ≤ SAD, so a
// candidate whose block-sum gap already reaches the incumbent's budget
// needs no SAD (searchState.visit has the one tie it must still run).
//
// The table holds (W+1)×(H+1) uint32 prefix sums. They wrap for large
// planes, but a block's sum is below 2³², so the four-term difference is
// exact modulo 2³² and therefore exact. Reset points the table at a plane;
// the first search that looks up builds it, once, so a frame whose
// searches never look up never pays for it. Lookups may run concurrently;
// Reset must not run concurrently with them.
type SumTable struct {
	once   sync.Once
	p      *video.Plane
	stride int // W+1 of the plane the sums were built from
	sums   []uint32
}

// Reset points t at plane p (nil releases the plane) and discards the
// sums, keeping their backing array; the next lookup rebuilds them.
func (t *SumTable) Reset(p *video.Plane) {
	t.once = sync.Once{}
	t.p = p
}

// prepare builds the table on its first call after Reset and returns at
// once after that. It must precede blockSum.
func (t *SumTable) prepare() { t.once.Do(t.build) }

// build fills every prefix sum of t.p, overwriting the whole table.
func (t *SumTable) build() {
	p := t.p
	t.stride = p.W + 1
	n := t.stride * (p.H + 1)
	if cap(t.sums) < n {
		t.sums = make([]uint32, n)
	}
	t.sums = t.sums[:n]
	clear(t.sums[:t.stride])
	for y := 0; y < p.H; y++ {
		above := t.sums[y*t.stride : (y+1)*t.stride]
		row := t.sums[(y+1)*t.stride : (y+2)*t.stride]
		row[0] = 0
		var run uint32
		for x, v := range p.Pix[y*p.Stride : y*p.Stride+p.W] {
			run += uint32(v)
			row[x+1] = above[x+1] + run
		}
	}
}

// blockSum returns the sum of the w×h block of the plane at (x, y).
func (t *SumTable) blockSum(x, y, w, h int) int64 {
	top, bot := y*t.stride, (y+h)*t.stride
	return int64(t.sums[bot+x+w] - t.sums[bot+x] - t.sums[top+x+w] + t.sums[top+x])
}

// pixelSum returns the sum of the w×h block of p at (x, y).
func pixelSum(p *video.Plane, x, y, w, h int) int64 {
	var sum int64
	for r := y; r < y+h; r++ {
		for _, px := range p.Pix[r*p.Stride+x : r*p.Stride+x+w] {
			sum += int64(px)
		}
	}
	return sum
}
