// Package motion implements block-matching motion estimation: the SAD cost
// kernel and the search algorithms the paper's pipeline and its baseline
// run — TZ search (HM reference), cross search, one-at-a-time search and
// hexagon-based search (horizontal, vertical and rotating) —
// plus the paper's proposed combined GOP-aware search policy for
// bio-medical video (Sec. III-C2).
package motion

import (
	"fmt"
	"sync"

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

// horizontalish reports whether the vector is predominantly horizontal.
// Ties count as horizontal, matching the hexagon-search convention that the
// horizontal pattern wins for lateral motion.
func (v MV) horizontalish() bool { return abs(v.X) >= abs(v.Y) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Block identifies the current block to be predicted and the reference
// plane to search in. Cur and Ref must have identical dimensions.
// RefSums, when non-nil, is a SumTable reset to Ref; TZSearch then skips
// the SADs of candidates that cannot win. It never changes a Result.
type Block struct {
	Cur, Ref   *video.Plane
	X, Y, W, H int
	RefSums    *SumTable
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
//
// The memo is window-indexed and generation-stamped: cell i holds the
// penalized cost of one candidate of the (2·wx+1)×(2·wy+1) window, live
// only while stamp[i] == gen. Each search bumps gen, so a stale cell is
// never read and nothing is cleared. A cost abandoned by sad's early exit
// is cached as it came back, partial, exactly as the first visit saw it.
// A candidate the block-sum bound rejected is cached as rejectedMark plus
// the budget it was skipped under, so a later try that reads its cost can
// run that same early-exit SAD. States are recycled through statePool,
// memo included.
type searchState struct {
	b      Block
	window int
	pred   MV
	best   MV
	cost   int64 // penalized cost of the incumbent
	rawSAD int64 // raw SAD of the incumbent
	evals  int
	// wx, wy bound the memo's vectors: the window, clamped to the
	// displacements that keep the block inside the reference.
	wx, wy int
	gen    uint32
	stamp  []uint32
	costs  []int64
	// sums, when non-nil, turns on block-sum rejection against the
	// reference; curSum is Σcur, or -1 until the search's first bound check.
	sums   *SumTable
	curSum int64
}

// rejectedMark offsets the budget of a rejected candidate in its memo
// cell. That budget is at most the candidate's block-sum gap, below 2³²,
// so a marked cell is negative, and a cost never is.
const rejectedMark = -1 << 62

// statePool recycles search states with their memos (up to 129² cells at
// window 64), which is what keeps a search allocation-free.
var statePool = sync.Pool{New: func() any { return new(searchState) }}

// newSearchState returns a pooled state reset for one search; result()
// returns it to the pool.
func newSearchState(b Block, window int) *searchState {
	s := statePool.Get().(*searchState)
	s.start(b, window)
	return s
}

// start resets s for a search of b within window, keeping the memo's
// backing arrays and opening a new generation.
func (s *searchState) start(b Block, window int) {
	s.b, s.window = b, window
	s.pred, s.best = MV{}, MV{}
	s.cost, s.rawSAD, s.evals = 1<<62, 1<<62, 0
	s.sums, s.curSum = nil, -1
	s.wx = max(0, min(window, b.Ref.W-b.W))
	s.wy = max(0, min(window, b.Ref.H-b.H))
	cells := (2*s.wx + 1) * (2*s.wy + 1)
	if cap(s.stamp) < cells {
		s.stamp, s.costs = make([]uint32, cells), make([]int64, cells)
	}
	s.stamp, s.costs = s.stamp[:cells], s.costs[:cells]
	s.gen++
	if s.gen == 0 { // wrapped: stamps from 2³² searches ago would match
		clear(s.stamp[:cap(s.stamp)])
		s.gen = 1
	}
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

// visit evaluates candidate v (once) and updates the incumbent. It returns
// v's memo cell, or -1 when v is outside the window or the frame.
//
// With sums set, v is rejected unevaluated when its block-sum gap reaches
// the budget: its SAD is then at least the budget too, so sad would return
// a cost of at least the incumbent's, and could only win the tie rule
// below with a smaller |v|. The |v| guard rules that out, which keeps
// every Result bit-identical. A rejected candidate still counts in evals.
func (s *searchState) visit(v MV) int {
	if v.X < -s.wx || v.X > s.wx || v.Y < -s.wy || v.Y > s.wy {
		return -1 // outside the window or the frame
	}
	i := (v.Y+s.wy)*(2*s.wx+1) + v.X + s.wx
	if s.stamp[i] == s.gen {
		return i
	}
	if !s.inRange(v) {
		return -1
	}
	pen := s.mvPenalty(v)
	budget := s.cost - pen
	s.stamp[i] = s.gen
	s.evals++
	if s.sums != nil && v.AbsSum() >= s.best.AbsSum() && s.sumGap(v) >= budget {
		s.costs[i] = rejectedMark + budget
		return i
	}
	raw := sad(&s.b, v, budget)
	c := raw + pen
	s.costs[i] = c
	if c < s.cost || (c == s.cost && v.AbsSum() < s.best.AbsSum()) {
		s.cost, s.best, s.rawSAD = c, v, raw
	}
	return i
}

// try is visit for callers that read the cost: it returns v's penalized
// cost, or a huge cost when out of range. A rejected candidate is priced
// by the SAD visit skipped, under the budget it was skipped under, so the
// value is the one an unrejected visit would have cached.
//
// That value, like any cost sad abandons early, is a partial sum. The tie
// rule in visit lets such a partial sum, equal to the budget, make v the
// incumbent, so Result.Cost can understate the winner's full SAD, and
// encodeBlock's skip-intra test in the codec reads Result.Cost. Fixing
// that moves bits, so it is left as it is.
func (s *searchState) try(v MV) int64 {
	i := s.visit(v)
	if i < 0 {
		return 1 << 62
	}
	c := s.costs[i]
	if c < 0 {
		c = sad(&s.b, v, c-rejectedMark) + s.mvPenalty(v)
		s.costs[i] = c
	}
	return c
}

// sumGap returns |Σcur − Σref| for candidate v, a lower bound on its SAD.
// The search's first call prepares the reference table and sums the
// current block.
func (s *searchState) sumGap(v MV) int64 {
	b := &s.b
	if s.curSum < 0 {
		s.sums.prepare()
		s.curSum = pixelSum(b.Cur, b.X, b.Y, b.W, b.H)
	}
	gap := s.curSum - s.sums.blockSum(b.X+v.X, b.Y+v.Y, b.W, b.H)
	if gap < 0 {
		return -gap
	}
	return gap
}

// result reports the search's outcome and returns s to statePool; the
// caller must not touch s again.
func (s *searchState) result() Result {
	r := Result{MV: s.best, Cost: s.rawSAD, Evals: s.evals}
	s.b, s.sums = Block{}, nil // a pooled state must not pin frame planes
	statePool.Put(s)
	return r
}

// sad computes the sum of absolute differences between the current block
// and the reference block displaced by v, aborting early once the partial
// sum exceeds bestSoFar (standard ME early termination).
func sad(b *Block, v MV, bestSoFar int64) int64 {
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
	s.visit(MV{})
	if s.pred != (MV{}) {
		s.visit(s.pred)
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
