package motion

import (
	"math/rand"
	"testing"

	"repro/internal/video"
)

// Plane contents the rejection tests draw from: texture the SAD surface
// is rough on, texture it is smooth on, and near-flat planes full of
// exact matches, where a penalized incumbent leaves budgets ≤ 0.
const (
	planeRandom = iota
	planeSmooth
	planeFlat
	planeKinds
)

// rejectionPlanes returns a w×h reference of the given kind and a current
// plane that is the reference shifted by (sx, sy) plus kind-sized noise.
func rejectionPlanes(kind, w, h, sx, sy int, seed int64) (cur, ref *video.Plane) {
	rng := rand.New(rand.NewSource(seed))
	px := func(x, y int) int {
		switch kind {
		case planeRandom:
			return rng.Intn(256)
		case planeSmooth:
			return int(texel(x+int(seed%97), y+int(seed%89))) + rng.Intn(5) - 2
		default:
			if rng.Intn(16) == 0 {
				return 100 + rng.Intn(3)
			}
			return 100
		}
	}
	ref = video.NewPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			ref.Set(x, y, video.ClampU8(px(x, y)))
		}
	}
	cur = video.NewPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := int(ref.At(min(max(x+sx, 0), w-1), min(max(y+sy, 0), h-1)))
			if kind != planeFlat {
				v += rng.Intn(7) - 3
			}
			cur.Set(x, y, video.ClampU8(v))
		}
	}
	return cur, ref
}

// rejections tallies the candidates a forced-rejection run skipped, by
// the sign of the budget they were skipped under.
type rejections struct{ positive, nonPositive int }

// checkRejection runs every searcher on b with and without RefSums, and
// once more with rejection forced on whatever the algorithm, and requires
// the three Results to be identical. It returns the forced runs' skips.
func checkRejection(t *testing.T, b Block, window int, pred MV) rejections {
	t.Helper()
	var n rejections
	sums := new(SumTable)
	sums.Reset(b.Ref)
	plain, rejecting := b, b
	plain.RefSums, rejecting.RefSums = nil, sums
	for _, s := range allSearchers {
		want := s.Search(plain, window, pred)
		if got := s.Search(rejecting, window, pred); got != want {
			t.Fatalf("%s %dx%d@(%d,%d) in %dx%d window %d pred %v: with RefSums %+v, without %+v",
				label(s), b.W, b.H, b.X, b.Y, b.Ref.W, b.Ref.H, window, pred, got, want)
		}
		st := new(searchState)
		st.start(rejecting, window)
		st.sums = sums
		s.(algorithm).run(st, pred)
		if got := (Result{MV: st.best, Cost: st.rawSAD, Evals: st.evals}); got != want {
			t.Fatalf("%s %dx%d@(%d,%d) in %dx%d window %d pred %v: rejection forced %+v, without %+v",
				label(s), b.W, b.H, b.X, b.Y, b.Ref.W, b.Ref.H, window, pred, got, want)
		}
		for i, c := range st.costs {
			if st.stamp[i] != st.gen || c >= 0 {
				continue
			}
			if c-rejectedMark > 0 {
				n.positive++
			} else {
				n.nonPositive++
			}
		}
	}
	return n
}

// rejectionCase derives one search from raw fuzz values: a plane of 8–71
// pixels a side, a block of 1–16 anywhere in it (partial edge blocks
// included), a window of 0–20 that small planes clamp, and a predictor
// up to 8 away.
func rejectionCase(t *testing.T, seed int64, kind, w, h, bx, by, bw, bh, window uint8, px, py int8) rejections {
	t.Helper()
	pw, ph := 8+int(w)%64, 8+int(h)%64
	x, y := int(bx)%pw, int(by)%ph
	b := Block{X: x, Y: y, W: min(1+int(bw)%16, pw-x), H: min(1+int(bh)%16, ph-y)}
	b.Cur, b.Ref = rejectionPlanes(int(kind)%planeKinds, pw, ph, int(px)%3, int(py)%3, seed)
	return checkRejection(t, b, int(window)%21, MV{int(px) % 9, int(py) % 9})
}

// TestSearchRejectionExact is FuzzSearchRejection's seeded table: every
// plane kind, edge and partial blocks, windows the frame clamps, and
// predictors far enough off that exact matches leave budgets ≤ 0. It
// requires the forced runs to have skipped candidates under both signs
// of budget, so the bound is exercised, not just compiled.
func TestSearchRejectionExact(t *testing.T) {
	var n rejections
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 300; i++ {
		var v [10]uint8
		for j := range v {
			v[j] = uint8(rng.Intn(256))
		}
		r := rejectionCase(t, int64(i), uint8(i%planeKinds), v[0], v[1], v[2], v[3], v[4], v[5], v[6], int8(v[7]), int8(v[8]))
		n.positive += r.positive
		n.nonPositive += r.nonPositive
	}
	for _, c := range []struct {
		w, h, x, y, bw, bh, window int
	}{
		{64, 48, 56, 40, 8, 8, 16},  // bottom-right corner
		{64, 48, 60, 45, 4, 3, 16},  // partial edge block
		{24, 20, 4, 4, 16, 16, 16},  // window clamped to the frame
		{20, 18, 0, 0, 16, 16, 64},  // a frame barely larger than the block
		{48, 48, 16, 16, 16, 16, 0}, // window 0: only the zero vector
	} {
		for kind := 0; kind < planeKinds; kind++ {
			b := Block{X: c.x, Y: c.y, W: c.bw, H: c.bh}
			b.Cur, b.Ref = rejectionPlanes(kind, c.w, c.h, 1, -1, int64(kind))
			for _, pred := range []MV{{}, {3, -2}, {-7, 5}} {
				r := checkRejection(t, b, c.window, pred)
				n.positive += r.positive
				n.nonPositive += r.nonPositive
			}
		}
	}
	if n.positive == 0 || n.nonPositive == 0 {
		t.Fatalf("forced runs skipped %d candidates under positive budgets and %d under budgets ≤ 0; want both", n.positive, n.nonPositive)
	}
}

func FuzzSearchRejection(f *testing.F) {
	f.Add(int64(1), uint8(planeRandom), uint8(40), uint8(40), uint8(12), uint8(12), uint8(15), uint8(15), uint8(16), int8(2), int8(-1))
	f.Add(int64(2), uint8(planeSmooth), uint8(56), uint8(40), uint8(60), uint8(45), uint8(3), uint8(2), uint8(20), int8(-5), int8(4))
	f.Add(int64(3), uint8(planeFlat), uint8(16), uint8(8), uint8(0), uint8(0), uint8(15), uint8(15), uint8(20), int8(7), int8(-7))
	f.Fuzz(func(t *testing.T, seed int64, kind, w, h, bx, by, bw, bh, window uint8, px, py int8) {
		rejectionCase(t, seed, kind, w, h, bx, by, bw, bh, window, px, py)
	})
}

// TestRejectionTieTrap is the case the |v| guard exists for. The
// incumbent (2,0) costs 8 (SAD 0, penalty 8), so (1,0), with penalty 4,
// is visited under a budget of 4. Its first row alone sums to 4, so sad
// stops there and reports a cost of 8: a tie the smaller |v| wins, though
// its full SAD is 34. Its block-sum gap is 34 too, well past the budget,
// so only the guard keeps the bound from rejecting the winner.
func TestRejectionTieTrap(t *testing.T) {
	cur, ref := video.NewPlane(16, 16), video.NewPlane(16, 16)
	for y, v := range []uint8{4, 10, 10, 10} {
		ref.Set(5, 4+y, v)
	}
	b := Block{Cur: cur, Ref: ref, X: 4, Y: 4, W: 4, H: 4}
	sums := new(SumTable)
	sums.Reset(ref)
	run := func(sums *SumTable) *searchState {
		s := new(searchState)
		s.start(b, 4)
		s.sums = sums
		s.seed(MV{})
		s.visit(MV{2, 0})
		return s
	}
	rejecting := run(sums)
	if gap, budget := rejecting.sumGap(MV{1, 0}), rejecting.cost-rejecting.mvPenalty(MV{1, 0}); gap < budget || budget != 4 {
		t.Fatalf("setup: gap %d, budget %d; want the gap to reach a budget of 4", gap, budget)
	}
	plain := run(nil)
	for _, s := range []*searchState{plain, rejecting} {
		s.visit(MV{1, 0})
	}
	want := Result{MV: MV{1, 0}, Cost: 4, Evals: 3}
	for name, s := range map[string]*searchState{"without rejection": plain, "with rejection": rejecting} {
		if got := (Result{MV: s.best, Cost: s.rawSAD, Evals: s.evals}); got != want {
			t.Errorf("%s: %+v, want %+v (the tie goes to the smaller vector, with its partial SAD)", name, got, want)
		}
	}
}

// TestTryPricesRejectedCandidate holds try's value for a rejected
// candidate to the early-exit SAD a search without rejection caches: the
// value one-at-a-time's probes compare.
func TestTryPricesRejectedCandidate(t *testing.T) {
	cur, ref := rejectionPlanes(planeSmooth, 64, 64, 2, 1, 7)
	b := Block{Cur: cur, Ref: ref, X: 24, Y: 24, W: 16, H: 16}
	sums := new(SumTable)
	sums.Reset(ref)
	plain, rejecting := new(searchState), new(searchState)
	plain.start(b, 16)
	rejecting.start(b, 16)
	rejecting.sums = sums
	for _, s := range []*searchState{plain, rejecting} {
		s.seed(MV{})
		s.visit(MV{-2, -1}) // the true motion: a low incumbent
	}
	skipped := 0
	for dy := -16; dy <= 16; dy += 4 {
		for dx := -16; dx <= 16; dx += 4 {
			v := MV{dx, dy}
			i := rejecting.visit(v)
			if i >= 0 && rejecting.costs[i] < 0 {
				skipped++
			}
			if got, want := rejecting.try(v), plain.try(v); got != want {
				t.Fatalf("try%v: %d with rejection, %d without", v, got, want)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no candidate was rejected; the test prices nothing")
	}
	if rejecting.evals != plain.evals || rejecting.best != plain.best {
		t.Fatalf("states diverged: %d evals best %v, want %d evals best %v", rejecting.evals, rejecting.best, plain.evals, plain.best)
	}
}

// TestOnlyTZBuildsSums holds the table's laziness: a search that never
// looks up leaves it unbuilt, so a frame served only by the proposed
// policy's searchers never pays for one.
func TestOnlyTZBuildsSums(t *testing.T) {
	cur, ref := shiftedPlanes(96, 96, 2, 1)
	b := interiorBlock(cur, ref)
	b.RefSums = new(SumTable)
	b.RefSums.Reset(ref)
	for _, s := range []Searcher{cross{}, OneAtATime{}, Hexagon{Orientation: HexRotating}} {
		s.Search(b, 16, MV{})
		if b.RefSums.sums != nil {
			t.Fatalf("%s built the sum table", label(s))
		}
	}
	TZSearch{}.Search(b, 16, MV{})
	if b.RefSums.sums == nil {
		t.Fatal("TZ search did not build the sum table")
	}
}

// TestSumTableExact checks every block sum, from the table and from
// pixelSum, against a direct sum, then
// again with every prefix sum offset so that some wrap past 2³² and
// others do not: the lookup must be exact modulo 2³², as large planes
// need.
func TestSumTableExact(t *testing.T) {
	_, p := rejectionPlanes(planeRandom, 23, 17, 0, 0, 5)
	var tbl SumTable
	tbl.Reset(p)
	tbl.prepare()
	check := func(what string) {
		for y := 0; y < p.H; y++ {
			for x := 0; x < p.W; x++ {
				for h := 1; y+h <= p.H; h += 3 {
					for w := 1; x+w <= p.W; w += 2 {
						var want int64
						for yy := y; yy < y+h; yy++ {
							for xx := x; xx < x+w; xx++ {
								want += int64(p.At(xx, yy))
							}
						}
						if got := tbl.blockSum(x, y, w, h); got != want {
							t.Fatalf("%s: %dx%d@(%d,%d) sums to %d, want %d", what, w, h, x, y, got, want)
						}
						if got := pixelSum(p, x, y, w, h); got != want {
							t.Fatalf("pixelSum: %dx%d@(%d,%d) sums to %d, want %d", w, h, x, y, got, want)
						}
					}
				}
			}
		}
	}
	check("built")
	for i := range tbl.sums {
		tbl.sums[i] += 0xFFFF_F000
	}
	check("wrapped")
	// Reset keeps the array but rebuilds it, so stale sums never leak.
	_, q := rejectionPlanes(planeSmooth, 9, 30, 0, 0, 6)
	tbl.Reset(q)
	tbl.prepare()
	p = q
	check("rebuilt for another plane")
}
