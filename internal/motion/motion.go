// Package motion implements block-matching motion estimation: the SAD cost
// kernel and the search algorithms the paper's pipeline and its baseline
// run — TZ search (HM reference), cross search, one-at-a-time search and
// hexagon-based search (horizontal, vertical and rotating) —
// plus the paper's proposed combined GOP-aware search policy for
// bio-medical video (Sec. III-C2).
package motion

import (
	"fmt"

	"repro/internal/video"
)

// MV is a motion vector in full-pel units.
type MV struct{ X, Y int }

// Add returns the component-wise sum.
func (v MV) Add(o MV) MV { return MV{v.X + o.X, v.Y + o.Y} }

// String formats the vector.
func (v MV) String() string { return fmt.Sprintf("(%d,%d)", v.X, v.Y) }

// AbsSum returns |X|+|Y|, used as a motion-vector rate proxy.
func (v MV) AbsSum() int { return abs(v.X) + abs(v.Y) }

// Horizontalish reports whether the vector is predominantly horizontal.
// Ties count as horizontal, matching the hexagon-search convention that the
// horizontal pattern wins for lateral motion.
func (v MV) Horizontalish() bool { return abs(v.X) >= abs(v.Y) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Block identifies the current block to be predicted and the reference
// plane to search in. Cur and Ref must have identical dimensions.
type Block struct {
	Cur, Ref   *video.Plane
	X, Y, W, H int
}

// Result is the outcome of a search.
type Result struct {
	MV    MV
	Cost  int64 // SAD of the winning candidate
	Evals int   // number of candidate positions evaluated (complexity proxy)
}

// Searcher is a motion search algorithm. Implementations must return the
// best candidate found; window bounds both motion-vector components and
// pred seeds the search (the predicted vector from neighboring blocks or
// the co-located tile of the previous frame).
type Searcher interface {
	Search(b Block, window int, pred MV) Result
}

// mvLambda is the motion-vector rate weight of the search cost
// J = SAD + λ·|mv − pred|₁, the standard rate-constrained matching metric.
// Without it an exhaustive search picks far-away SAD minima whose vectors
// cost more se(v) bits than the residual they save.
const mvLambda = 4

// searchState tracks the best candidate and memoizes SAD evaluations so
// iterative patterns never pay twice for one position. Selection uses the
// rate-penalized cost; Result reports the winner's raw SAD.
type searchState struct {
	b      Block
	window int
	pred   MV
	best   MV
	cost   int64 // penalized cost of the incumbent
	rawSAD int64 // raw SAD of the incumbent
	evals  int
	seen   map[MV]int64
}

func newSearchState(b Block, window int) *searchState {
	return &searchState{b: b, window: window, cost: 1 << 62, rawSAD: 1 << 62, seen: make(map[MV]int64, 64)}
}

// mvPenalty is the rate term of candidate v.
func (s *searchState) mvPenalty(v MV) int64 {
	d := MV{v.X - s.pred.X, v.Y - s.pred.Y}
	return mvLambda * int64(d.AbsSum())
}

// inRange reports whether candidate v keeps the reference block inside the
// frame and inside the search window.
func (s *searchState) inRange(v MV) bool {
	if abs(v.X) > s.window || abs(v.Y) > s.window {
		return false
	}
	rx, ry := s.b.X+v.X, s.b.Y+v.Y
	return rx >= 0 && ry >= 0 && rx+s.b.W <= s.b.Ref.W && ry+s.b.H <= s.b.Ref.H
}

// try evaluates candidate v (once) and updates the incumbent. It returns
// the candidate's penalized cost, or a huge cost when out of range.
func (s *searchState) try(v MV) int64 {
	if c, ok := s.seen[v]; ok {
		return c
	}
	if !s.inRange(v) {
		return 1 << 62
	}
	pen := s.mvPenalty(v)
	raw := sad(s.b, v, s.cost-pen)
	c := raw + pen
	s.seen[v] = c
	s.evals++
	if c < s.cost || (c == s.cost && v.AbsSum() < s.best.AbsSum()) {
		s.cost, s.best, s.rawSAD = c, v, raw
	}
	return c
}

func (s *searchState) result() Result { return Result{MV: s.best, Cost: s.rawSAD, Evals: s.evals} }

// sad computes the sum of absolute differences between the current block
// and the reference block displaced by v, aborting early once the partial
// sum exceeds bestSoFar (standard ME early termination).
func sad(b Block, v MV, bestSoFar int64) int64 {
	rx, ry := b.X+v.X, b.Y+v.Y
	var sum int64
	for y := 0; y < b.H; y++ {
		cRow := b.Cur.Pix[(b.Y+y)*b.Cur.Stride+b.X : (b.Y+y)*b.Cur.Stride+b.X+b.W]
		rRow := b.Ref.Pix[(ry+y)*b.Ref.Stride+rx : (ry+y)*b.Ref.Stride+rx+b.W]
		for i := range cRow {
			d := int(cRow[i]) - int(rRow[i])
			if d < 0 {
				d = -d
			}
			sum += int64(d)
		}
		if sum >= bestSoFar {
			return sum
		}
	}
	return sum
}

// seed initializes the state with the predictor (which anchors the rate
// penalty) and the zero vector.
func (s *searchState) seed(pred MV) {
	s.pred = clampMV(pred, s.window)
	s.try(MV{})
	if s.pred != (MV{}) {
		s.try(s.pred)
	}
}

func clampMV(v MV, w int) MV {
	return MV{clamp(v.X, -w, w), clamp(v.Y, -w, w)}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
