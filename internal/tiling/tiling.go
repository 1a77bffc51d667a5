// Package tiling provides frame partitioning for tile-parallel encoding:
// rectangle/tile/grid types, uniform n×m tilings, exact partition
// validation, and the paper's content-aware re-tiling procedure
// (Sec. III-B) which grows low-content corner and border tiles and splits
// the information-dense center into several similar-size tiles.
package tiling

import (
	"fmt"
	"sort"
)

// Rect is an axis-aligned rectangle in sample coordinates.
type Rect struct {
	X, Y, W, H int
}

// Area returns W*H.
func (r Rect) Area() int { return r.W * r.H }

// Empty reports whether the rectangle has no area.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// intersects reports whether two rectangles share any sample.
func (r Rect) intersects(o Rect) bool {
	return r.X < o.X+o.W && o.X < r.X+r.W && r.Y < o.Y+o.H && o.Y < r.Y+r.H
}

// String formats the rectangle as WxH@(X,Y).
func (r Rect) String() string { return fmt.Sprintf("%dx%d@(%d,%d)", r.W, r.H, r.X, r.Y) }

// Region labels where a tile sits in the frame, which the scheduler and the
// analysis stage use to reason about expected content.
type Region int

// Tile regions produced by the content-aware re-tiler.
const (
	regionCenter Region = iota
	regionCorner
	regionBorder
)

// String returns the region name.
func (r Region) String() string {
	switch r {
	case regionCenter:
		return "center"
	case regionCorner:
		return "corner"
	case regionBorder:
		return "border"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// Tile is one independently encodable partition of a frame.
type Tile struct {
	Rect
	// Index is the tile's position in its Grid (0-based, raster-ish order).
	Index int
	// Region records where the re-tiler placed this tile.
	Region Region
}

// Grid is a complete partition of a FrameW×FrameH frame into tiles.
type Grid struct {
	FrameW, FrameH int
	Tiles          []Tile
}

// NumTiles returns the number of tiles.
func (g *Grid) NumTiles() int { return len(g.Tiles) }

// Validate checks that the tiles exactly partition the frame: every sample
// is covered exactly once and no tile exceeds the frame bounds.
func (g *Grid) Validate() error {
	if g.FrameW <= 0 || g.FrameH <= 0 {
		return fmt.Errorf("tiling: invalid frame %dx%d", g.FrameW, g.FrameH)
	}
	if len(g.Tiles) == 0 {
		return fmt.Errorf("tiling: empty grid")
	}
	var area int
	for i, t := range g.Tiles {
		if t.Empty() {
			return fmt.Errorf("tiling: tile %d is empty: %s", i, t.Rect)
		}
		if t.X < 0 || t.Y < 0 || t.X+t.W > g.FrameW || t.Y+t.H > g.FrameH {
			return fmt.Errorf("tiling: tile %d out of bounds: %s in %dx%d", i, t.Rect, g.FrameW, g.FrameH)
		}
		area += t.Area()
		for j := i + 1; j < len(g.Tiles); j++ {
			if t.intersects(g.Tiles[j].Rect) {
				return fmt.Errorf("tiling: tiles %d and %d overlap: %s vs %s", i, j, t.Rect, g.Tiles[j].Rect)
			}
		}
	}
	if area != g.FrameW*g.FrameH {
		return fmt.Errorf("tiling: tiles cover %d samples, frame has %d", area, g.FrameW*g.FrameH)
	}
	return nil
}

// reindex renumbers tiles in (y, x) raster order for deterministic output.
func (g *Grid) reindex() {
	sort.SliceStable(g.Tiles, func(i, j int) bool {
		a, b := g.Tiles[i], g.Tiles[j]
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.X < b.X
	})
	for i := range g.Tiles {
		g.Tiles[i].Index = i
	}
}

// Uniform returns the n×m uniform tiling the paper uses as both the initial
// tiling and the Table I sweep axis: the frame width is divided into nx
// columns and the height into ny rows, with remainders spread one sample at
// a time over the leading columns/rows (so all tiles differ by at most one
// sample per dimension).
func Uniform(frameW, frameH, nx, ny int) (*Grid, error) {
	if frameW <= 0 || frameH <= 0 {
		return nil, fmt.Errorf("tiling: invalid frame %dx%d", frameW, frameH)
	}
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("tiling: invalid split %dx%d", nx, ny)
	}
	if nx > frameW || ny > frameH {
		return nil, fmt.Errorf("tiling: split %dx%d exceeds frame %dx%d", nx, ny, frameW, frameH)
	}
	xs := splitEven(frameW, nx)
	ys := splitEven(frameH, ny)
	g := &Grid{FrameW: frameW, FrameH: frameH}
	oy := 0
	for _, th := range ys {
		ox := 0
		for _, tw := range xs {
			g.Tiles = append(g.Tiles, Tile{Rect: Rect{X: ox, Y: oy, W: tw, H: th}, Region: regionCenter})
			ox += tw
		}
		oy += th
	}
	g.reindex()
	return g, nil
}

// splitEven divides total into n nearly equal positive parts.
func splitEven(total, n int) []int {
	parts := make([]int, n)
	base, rem := total/n, total%n
	for i := range parts {
		parts[i] = base
		if i < rem {
			parts[i]++
		}
	}
	return parts
}

// MustUniform is Uniform for parameters known to be valid.
func MustUniform(frameW, frameH, nx, ny int) *Grid {
	g, err := Uniform(frameW, frameH, nx, ny)
	if err != nil {
		panic(err)
	}
	return g
}
