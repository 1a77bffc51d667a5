package motion

// This file implements the individual search algorithms. All of them share
// the memoizing searchState, so revisiting a position during pattern
// iteration costs nothing, and all support a predicted start vector. Each
// Search takes a pooled state and runs the algorithm's run method on it;
// candidate patterns are fixed arrays, so a search allocates nothing. Only
// TZ search turns on block-sum rejection (Block.RefSums): the other
// patterns run about eight evaluations a block, too few to repay the
// current block's sum and the reference table.

// TZSearch is a faithful simplification of the HM reference encoder's Test
// Zone search: predictor seeding, an expanding 8-point diamond zonal
// search, a sparse raster fallback when the best distance is large, and
// iterative star refinement.
type TZSearch struct{}

// HM's defaults: the raster stage runs when the zonal best distance exceeds
// tzRasterThreshold, subsampling the window at tzRasterStride.
const (
	tzRasterThreshold = 5
	tzRasterStride    = 5
)

// Search implements Searcher.
func (t TZSearch) Search(b Block, window int, pred MV) Result {
	s := newSearchState(b, window)
	t.run(s, pred)
	return s.result()
}

func (TZSearch) run(s *searchState, pred MV) {
	window := s.window
	s.sums = s.b.RefSums
	s.seed(pred)

	// Zonal expanding diamond around the incumbent.
	center := s.best
	bestDist := 0
	for dist := 1; dist <= window; dist *= 2 {
		improved := false
		pts, n := diamondPoints(dist)
		for _, d := range pts[:n] {
			v := center.Add(d)
			s.visit(v)
			if s.best == v {
				improved = true
			}
		}
		if improved {
			bestDist = dist
		}
	}

	// Raster stage for distant optima.
	if bestDist > tzRasterThreshold {
		for dy := -window; dy <= window; dy += tzRasterStride {
			for dx := -window; dx <= window; dx += tzRasterStride {
				s.visit(MV{dx, dy})
			}
		}
	}

	// Star refinement: shrink the diamond around each new incumbent until
	// no improvement at distance 1.
	for {
		center = s.best
		improved := false
		for dist := 1; dist <= tzRasterThreshold; dist *= 2 {
			pts, n := diamondPoints(dist)
			for _, d := range pts[:n] {
				s.visit(center.Add(d))
			}
		}
		if s.best != center {
			improved = true
		}
		if !improved {
			break
		}
	}
}

// diamondPoints returns the diamond at distance d and its point count:
// 8 points, or the 4 orthogonal neighbours at distance 1.
func diamondPoints(d int) (pts [8]MV, n int) {
	if d == 1 {
		return [8]MV{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}, 4
	}
	h := d / 2
	return [8]MV{
		{d, 0}, {-d, 0}, {0, d}, {0, -d},
		{h, h}, {h, -h}, {-h, h}, {-h, -h},
	}, 8
}

// square1 holds the 8 neighbours at Chebyshev distance 1.
var square1 = [8]MV{
	{-1, -1}, {0, -1}, {1, -1},
	{-1, 0}, {1, 0},
	{-1, 1}, {0, 1}, {1, 1},
}

// sdsp is the small diamond search pattern.
var sdsp = [4]MV{{0, -1}, {1, 0}, {0, 1}, {-1, 0}}

// cross is the cross-search algorithm of Ghanbari (1990): a logarithmic
// search evaluating the four diagonal (×) neighbours at a halving step,
// finishing with the orthogonal (+) pattern at step one.
type cross struct{}

// Search implements Searcher.
func (c cross) Search(b Block, window int, pred MV) Result {
	s := newSearchState(b, window)
	c.run(s, pred)
	return s.result()
}

func (cross) run(s *searchState, pred MV) {
	s.seed(pred)
	step := 1
	for step*2 <= s.window {
		step *= 2
	}
	step /= 2
	if step == 0 {
		step = 1
	}
	for step > 1 {
		center := s.best
		for _, d := range [4]MV{{-step, -step}, {step, -step}, {-step, step}, {step, step}} {
			s.visit(center.Add(d))
		}
		if s.best == center {
			step /= 2
		}
	}
	// Endgame at step 1: both × and + neighbourhoods.
	center := s.best
	for _, d := range square1 {
		s.visit(center.Add(d))
	}
}

// OneAtATime is the one-at-a-time search (Srinivasan & Rao 1985): walk
// along one axis while the cost improves, then along the other. The
// Primary axis can be set from a known motion direction; the zero value
// walks horizontally first (the original formulation).
type OneAtATime struct {
	// Direction orients the first axis: horizontalish() chooses the axis
	// and its sign gives the first step direction. Zero value = +X first.
	Direction MV
}

// Search implements Searcher.
func (o OneAtATime) Search(b Block, window int, pred MV) Result {
	s := newSearchState(b, window)
	o.run(s, pred)
	return s.result()
}

func (o OneAtATime) run(s *searchState, pred MV) {
	s.seed(pred)
	firstHorizontal := o.Direction.horizontalish()
	axes := [2]MV{{1, 0}, {0, 1}}
	if !firstHorizontal {
		axes = [2]MV{{0, 1}, {1, 0}}
	}
	// Prefer stepping toward the known direction first on each axis.
	signFor := func(axis MV) int {
		d := o.Direction.X*axis.X + o.Direction.Y*axis.Y
		if d < 0 {
			return -1
		}
		return 1
	}
	for _, axis := range axes {
		sign := signFor(axis)
		// Probe both directions once, then walk the better one.
		center := s.best
		cPlus := s.try(center.Add(MV{axis.X * sign, axis.Y * sign}))
		cMinus := s.try(center.Add(MV{-axis.X * sign, -axis.Y * sign}))
		dir := sign
		if cMinus < cPlus {
			dir = -sign
		}
		// Walk while each step becomes the new incumbent.
		for {
			center = s.best
			next := center.Add(MV{axis.X * dir, axis.Y * dir})
			s.visit(next)
			if s.best != next {
				break
			}
		}
	}
}

// HexOrientation selects the hexagon pattern orientation.
type HexOrientation int

// Hexagon orientations. Rotating alternates between the two fixed patterns
// each iteration, approximating the rotating hexagonal pattern used when
// the motion direction is not yet known (first frame of a GOP).
const (
	HexHorizontal HexOrientation = iota
	HexVertical
	HexRotating
)

// hexH is the horizontal hexagon pattern (flat sides up/down): best for
// predominantly horizontal motion.
var hexH = [6]MV{{-2, 0}, {2, 0}, {-1, -2}, {1, -2}, {-1, 2}, {1, 2}}

// hexV is the vertical hexagon pattern.
var hexV = [6]MV{{0, -2}, {0, 2}, {-2, -1}, {-2, 1}, {2, -1}, {2, 1}}

// Hexagon is the hexagon-based search of Zhu, Lin & Chau (2002) with a
// selectable orientation and the standard small-diamond endgame.
type Hexagon struct {
	Orientation HexOrientation
}

// Search implements Searcher.
func (h Hexagon) Search(b Block, window int, pred MV) Result {
	s := newSearchState(b, window)
	h.run(s, pred)
	return s.result()
}

func (h Hexagon) run(s *searchState, pred MV) {
	s.seed(pred)
	iter := 0
	for i := 0; i < 4*s.window; i++ {
		center := s.best
		pattern := hexH
		switch h.Orientation {
		case HexVertical:
			pattern = hexV
		case HexRotating:
			if iter%2 == 1 {
				pattern = hexV
			}
		}
		for _, d := range pattern {
			s.visit(center.Add(d))
		}
		iter++
		if s.best == center {
			break
		}
	}
	center := s.best
	for _, d := range sdsp {
		s.visit(center.Add(d))
	}
}
