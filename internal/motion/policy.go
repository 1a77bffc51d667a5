package motion

import "fmt"

// This file implements the paper's proposed combined motion search for
// bio-medical video (Sec. III-C2). The key observation is that all tiles of
// a bio-medical frame move in the same direction, so the direction learned
// on the first frame of a GOP can steer cheaper directional searches on the
// remaining frames:
//
//   - low-motion tiles: cross search on the GOP's first frame (window 16),
//     then one-at-a-time search along the learned direction (window 8);
//   - high-motion tiles: rotating hexagon search on the first frame at the
//     maximum window, then horizontal or vertical hexagon search (chosen by
//     the learned direction) at smaller windows.

// PolicyConfig parametrizes the proposed GOP-aware search policy.
type PolicyConfig struct {
	// MaxWindow is the window for high-motion first-frame search (64).
	MaxWindow int
	// FollowWindow is the high-motion window after the first frame (32).
	FollowWindow int
	// LowFirstWindow is the low-motion first-frame window (16).
	LowFirstWindow int
	// LowFollowWindow is the low-motion window after the first frame (8).
	LowFollowWindow int
}

// DefaultPolicyConfig returns the paper's window schedule.
func DefaultPolicyConfig() PolicyConfig {
	return PolicyConfig{MaxWindow: 64, FollowWindow: 32, LowFirstWindow: 16, LowFollowWindow: 8}
}

// validate reports configuration errors.
func (c PolicyConfig) validate() error {
	for _, w := range []int{c.MaxWindow, c.FollowWindow, c.LowFirstWindow, c.LowFollowWindow} {
		if w <= 0 {
			return fmt.Errorf("motion: non-positive window in policy config %+v", c)
		}
	}
	if c.FollowWindow > c.MaxWindow || c.LowFollowWindow > c.LowFirstWindow {
		return fmt.Errorf("motion: follow windows must not exceed first-frame windows: %+v", c)
	}
	return nil
}

// GOPPolicy selects a Searcher and window per (tile, frame-in-GOP) and
// learns each tile's dominant direction from the first frame's motion
// vectors. It is not safe for concurrent use by multiple goroutines; each
// encoding worker owns one policy per tile set (tiles are independent, so
// per-tile state never races in the tile-parallel encoder because Observe
// and Choose are called with distinct tile keys per worker).
type GOPPolicy struct {
	cfg PolicyConfig
	// dir accumulates the first-frame motion per tile.
	dir map[int]MV
	// obs counts observations per tile so Direction can average.
	obs map[int]int
}

// NewGOPPolicy returns a policy with the given window schedule.
func NewGOPPolicy(cfg PolicyConfig) (*GOPPolicy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &GOPPolicy{cfg: cfg, dir: make(map[int]MV), obs: make(map[int]int)}, nil
}

// Reset clears learned directions; call at each GOP boundary.
func (p *GOPPolicy) Reset() {
	p.dir = make(map[int]MV)
	p.obs = make(map[int]int)
}

// Observe records a motion vector measured on the first frame of the GOP
// for the given tile. Multiple block vectors per tile are accumulated.
func (p *GOPPolicy) Observe(tile int, mv MV) {
	p.dir[tile] = p.dir[tile].Add(mv)
	p.obs[tile]++
}

// direction returns the learned dominant direction for a tile (the
// accumulated vector; only its orientation and sign matter).
func (p *GOPPolicy) direction(tile int) MV { return p.dir[tile] }

// Choose returns the searcher and window for a tile given its motion class
// and position in the GOP (frameInGOP 0 is the GOP's first frame).
func (p *GOPPolicy) Choose(tile int, highMotion bool, frameInGOP int) (Searcher, int) {
	first := frameInGOP == 0
	if highMotion {
		if first {
			return Hexagon{Orientation: HexRotating}, p.cfg.MaxWindow
		}
		orient := HexVertical
		if p.direction(tile).horizontalish() {
			orient = HexHorizontal
		}
		return Hexagon{Orientation: orient}, p.cfg.FollowWindow
	}
	if first {
		return cross{}, p.cfg.LowFirstWindow
	}
	return OneAtATime{Direction: p.direction(tile)}, p.cfg.LowFollowWindow
}

// PredFor returns the predicted start vector for a tile after the first
// frame: the per-block average of the tile's first-frame motion. On the
// first frame the zero vector is returned (the rotating pattern explores).
func (p *GOPPolicy) PredFor(tile int, frameInGOP int) MV {
	if frameInGOP == 0 {
		return MV{}
	}
	n := p.obs[tile]
	if n == 0 {
		return MV{}
	}
	d := p.dir[tile]
	return MV{roundDiv(d.X, n), roundDiv(d.Y, n)}
}

// roundDiv divides rounding half away from zero.
func roundDiv(a, n int) int {
	if n == 0 {
		return 0
	}
	if a >= 0 {
		return (a + n/2) / n
	}
	return -((-a + n/2) / n)
}
