package tiling

import (
	"fmt"
)

// ContentProbe answers content questions about rectangles of the current
// frame. It is implemented by the analysis package; tiling depends only on
// this narrow interface so the geometric algorithm stays testable with
// synthetic probes.
type ContentProbe interface {
	// LowContent reports whether both the texture and the motion inside r
	// are classified low (paper Sec. III-B: corner/border growth condition).
	LowContent(r Rect) bool
	// CenterTexture returns 0 (low), 1 (medium) or 2 (high) for the
	// texture of the central region, which sizes the center split.
	CenterTexture(r Rect) int
}

// RetileConfig parametrizes the content-aware re-tiler. The zero value is
// not valid; use DefaultRetileConfig.
type RetileConfig struct {
	// MinTileW, MinTileH are the minimum tile dimensions (the paper's
	// "predefined minimum tile size", which also guarantees termination).
	MinTileW, MinTileH int
	// MaxTiles caps the number of tiles within a frame.
	MaxTiles int
	// GrowthFactor is the per-step margin growth (paper: 25% more pixels,
	// first in width then in height).
	GrowthFactor float64
	// MaxMarginFrac bounds each border margin as a fraction of the frame
	// dimension so the center region always exists (≤ 0.45).
	MaxMarginFrac float64
	// MinCenterTiles is the minimum tile count for the high-texture,
	// high-motion center area (paper: 4).
	MinCenterTiles int
}

// DefaultRetileConfig returns the paper-faithful parameters.
func DefaultRetileConfig() RetileConfig {
	return RetileConfig{
		MinTileW:       64,
		MinTileH:       64,
		MaxTiles:       16,
		GrowthFactor:   0.25,
		MaxMarginFrac:  0.40,
		MinCenterTiles: 4,
	}
}

// Validate reports configuration errors against a frame geometry.
func (c RetileConfig) Validate(frameW, frameH int) error {
	if c.MinTileW <= 0 || c.MinTileH <= 0 {
		return fmt.Errorf("tiling: invalid min tile %dx%d", c.MinTileW, c.MinTileH)
	}
	if c.MinTileW*3 > frameW || c.MinTileH*3 > frameH {
		return fmt.Errorf("tiling: min tile %dx%d too large for frame %dx%d (need 3 per dimension)",
			c.MinTileW, c.MinTileH, frameW, frameH)
	}
	if c.MaxTiles < c.MinCenterTiles+8 {
		return fmt.Errorf("tiling: MaxTiles %d cannot hold %d center + 8 corner/border tiles",
			c.MaxTiles, c.MinCenterTiles)
	}
	if c.GrowthFactor <= 0 {
		return fmt.Errorf("tiling: non-positive growth factor %v", c.GrowthFactor)
	}
	if c.MaxMarginFrac <= 0 || c.MaxMarginFrac > 0.45 {
		return fmt.Errorf("tiling: MaxMarginFrac %v outside (0, 0.45]", c.MaxMarginFrac)
	}
	if c.MinCenterTiles < 1 {
		return fmt.Errorf("tiling: MinCenterTiles %d < 1", c.MinCenterTiles)
	}
	return nil
}

// Retile computes a content-aware partition of a frameW×frameH frame
// following Sec. III-B of the paper:
//
//  1. Starting from the corners and borders — which in bio-medical video
//     carry the least motion and texture — margins are grown by 25% more
//     pixels, first in the width and then in the height, for as long as the
//     margin strip remains low-texture and low-motion. The last low
//     coordinates are kept.
//  2. The four corner tiles, four border tiles and a central region result.
//  3. The center, which concentrates the diagnostic content, is split into
//     at least MinCenterTiles similar-size tiles; its texture class selects
//     the split density (low→minimum, high→denser), bounded by MaxTiles.
//
// The returned grid always validates (exact partition).
func Retile(frameW, frameH int, cfg RetileConfig, probe ContentProbe) (*Grid, error) {
	if err := cfg.Validate(frameW, frameH); err != nil {
		return nil, err
	}
	if probe == nil {
		return nil, fmt.Errorf("tiling: nil content probe")
	}

	maxMX := int(float64(frameW) * cfg.MaxMarginFrac)
	maxMY := int(float64(frameH) * cfg.MaxMarginFrac)
	if maxMX < cfg.MinTileW {
		maxMX = cfg.MinTileW
	}
	if maxMY < cfg.MinTileH {
		maxMY = cfg.MinTileH
	}

	// Grow the four margins independently. Each margin is the thickness of
	// the low-content strip along that frame edge.
	left := growMargin(cfg, probe, maxMX, func(m int) Rect { return Rect{0, 0, m, frameH} })
	right := growMargin(cfg, probe, maxMX, func(m int) Rect { return Rect{frameW - m, 0, m, frameH} })
	top := growMargin(cfg, probe, maxMY, func(m int) Rect { return Rect{0, 0, frameW, m} })
	bottom := growMargin(cfg, probe, maxMY, func(m int) Rect { return Rect{0, frameH - m, frameW, m} })

	// The center must retain room for its split at the minimum tile size.
	shrinkToFit(&left, &right, frameW, cfg.MinTileW)
	shrinkToFit(&top, &bottom, frameH, cfg.MinTileH)

	cx, cy := left, top
	cw, ch := frameW-left-right, frameH-top-bottom
	center := Rect{cx, cy, cw, ch}

	g := &Grid{FrameW: frameW, FrameH: frameH}
	add := func(r Rect, reg Region) {
		if !r.Empty() {
			g.Tiles = append(g.Tiles, Tile{Rect: r, Region: reg})
		}
	}
	// Corners.
	add(Rect{0, 0, left, top}, regionCorner)
	add(Rect{cx + cw, 0, right, top}, regionCorner)
	add(Rect{0, cy + ch, left, bottom}, regionCorner)
	add(Rect{cx + cw, cy + ch, right, bottom}, regionCorner)
	// Borders.
	add(Rect{cx, 0, cw, top}, regionBorder)
	add(Rect{cx, cy + ch, cw, bottom}, regionBorder)
	add(Rect{0, cy, left, ch}, regionBorder)
	add(Rect{cx + cw, cy, right, ch}, regionBorder)

	// Center split: texture selects the density.
	nx, ny := centerSplit(cfg, probe.CenterTexture(center), cw, ch, cfg.MaxTiles-len(g.Tiles))
	xs := splitEven(cw, nx)
	ys := splitEven(ch, ny)
	oy := cy
	for _, th := range ys {
		ox := cx
		for _, tw := range xs {
			add(Rect{ox, oy, tw, th}, regionCenter)
			ox += tw
		}
		oy += th
	}

	g.reindex()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("tiling: retile produced invalid grid: %w", err)
	}
	return g, nil
}

// growMargin grows one edge margin by cfg.GrowthFactor per step while the
// strip remains low content, and returns the last low thickness. If even
// the minimum-thickness strip has content, the minimum is returned (tiles
// cannot shrink below the minimum tile size).
func growMargin(cfg RetileConfig, probe ContentProbe, maxM int, strip func(m int) Rect) int {
	m := minMarginFor(strip(0), cfg)
	if !probe.LowContent(strip(m)) {
		return m
	}
	for {
		next := m + int(float64(m)*cfg.GrowthFactor)
		if next == m {
			next = m + 1
		}
		if next > maxM {
			return m
		}
		if !probe.LowContent(strip(next)) {
			return m
		}
		m = next
	}
}

// minMarginFor returns the minimum margin thickness for a strip: vertical
// strips (full frame height) use MinTileW, horizontal ones MinTileH.
func minMarginFor(r Rect, cfg RetileConfig) int {
	if r.H >= r.W { // the strip callback was given thickness 0; H set means vertical
		return cfg.MinTileW
	}
	return cfg.MinTileH
}

// shrinkToFit reduces a pair of opposing margins until the space between
// them can hold at least two minimum-size tiles in that dimension.
func shrinkToFit(a, b *int, total, minTile int) {
	need := 2 * minTile
	for total-*a-*b < need {
		if *a >= *b && *a > minTile {
			*a--
		} else if *b > minTile {
			*b--
		} else if *a > minTile {
			*a--
		} else {
			// Both margins are already at the minimum; configuration
			// validation guarantees this cannot happen.
			return
		}
	}
}

// centerSplit chooses an nx×ny split of the cw×ch center region. The split
// is at least MinCenterTiles total tiles, denser when the texture class is
// higher, and never produces tiles below the minimum size or exceeds the
// remaining tile budget.
func centerSplit(cfg RetileConfig, texture int, cw, ch, budget int) (nx, ny int) {
	target := cfg.MinCenterTiles
	switch {
	case texture >= 2:
		target = cfg.MinCenterTiles * 2
	case texture == 1:
		target = cfg.MinCenterTiles + cfg.MinCenterTiles/2
	}
	if target > budget {
		target = budget
	}
	if target < 1 {
		target = 1
	}
	maxNX := cw / cfg.MinTileW
	maxNY := ch / cfg.MinTileH
	if maxNX < 1 {
		maxNX = 1
	}
	if maxNY < 1 {
		maxNY = 1
	}
	// Pick the factorization of the largest count ≤ target that fits and is
	// closest to the region's aspect ratio.
	bestNX, bestNY, bestCount := 1, 1, 1
	for ty := 1; ty <= maxNY; ty++ {
		for tx := 1; tx <= maxNX; tx++ {
			n := tx * ty
			if n > target {
				continue
			}
			if n > bestCount || (n == bestCount && aspectCloser(cw, ch, tx, ty, bestNX, bestNY)) {
				bestNX, bestNY, bestCount = tx, ty, n
			}
		}
	}
	return bestNX, bestNY
}

// aspectCloser reports whether split (ax, ay) yields tiles closer to square
// than (bx, by) for a cw×ch region.
func aspectCloser(cw, ch, ax, ay, bx, by int) bool {
	ra := ratio(float64(cw)/float64(ax), float64(ch)/float64(ay))
	rb := ratio(float64(cw)/float64(bx), float64(ch)/float64(by))
	return ra < rb
}

// ratio returns max(w,h)/min(w,h) ≥ 1.
func ratio(w, h float64) float64 {
	if w > h {
		return w / h
	}
	return h / w
}
