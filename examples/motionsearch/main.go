// Motionsearch: compare every motion-search algorithm on a bio-medical
// clip — SAD evaluations, residual quality and recovered vectors — the
// Table I comparison in miniature, down at the block-matching level.
package main

import (
	"fmt"
	"log"

	"repro/internal/medgen"
	"repro/internal/motion"
)

func main() {
	// Two consecutive frames of a panning study: the true global motion in
	// MV space is (−3, −1).
	vc := medgen.Default()
	vc.Motion = medgen.Pan
	vc.PanVX, vc.PanVY = 3, 1
	vc.Frames = 2
	gen, err := medgen.NewGenerator(vc)
	if err != nil {
		log.Fatal(err)
	}
	ref := gen.Frame(0).Y
	cur := gen.Frame(1).Y

	searchers := []struct {
		name string
		s    motion.Searcher
	}{
		{"full", motion.FullSearch{}},
		{"tz", motion.TZSearch{}},
		{"cross", motion.Cross{}},
		{"ots", motion.OneAtATime{}},
		{"hex-horizontal", motion.Hexagon{Orientation: motion.HexHorizontal}},
		{"hex-vertical", motion.Hexagon{Orientation: motion.HexVertical}},
		{"hex-rotating", motion.Hexagon{Orientation: motion.HexRotating}},
	}

	// Blocks across the anatomy (center region with real structure).
	var blocks []motion.Block
	for by := 160; by < 320; by += 32 {
		for bx := 192; bx < 448; bx += 32 {
			blocks = append(blocks, motion.Block{Cur: cur, Ref: ref, X: bx, Y: by, W: 16, H: 16})
		}
	}

	fmt.Printf("%-16s %10s %12s %10s %8s\n", "algorithm", "evals/blk", "SAD/px", "found(-3,-1)", "window")
	for _, sr := range searchers {
		var evals, cost int64
		exact := 0
		for _, b := range blocks {
			res := sr.s.Search(b, 16, motion.MV{})
			evals += int64(res.Evals)
			cost += res.Cost
			if res.MV == (motion.MV{X: -3, Y: -1}) {
				exact++
			}
		}
		n := int64(len(blocks))
		fmt.Printf("%-16s %10.1f %12.2f %7d/%-4d %8d\n",
			sr.name, float64(evals)/float64(n), float64(cost)/float64(n*16*16), exact, len(blocks), 16)
	}

	// The paper's GOP-aware policy: learn the direction on the first frame,
	// then follow it with a directed one-at-a-time search in a tiny window.
	policy, err := motion.NewGOPPolicy(motion.DefaultPolicyConfig())
	if err != nil {
		log.Fatal(err)
	}
	policy.Observe(0, motion.MV{X: -3, Y: -1})
	s, w := policy.Choose(0, false, 3) // low-motion tile, later frame of GOP
	var evals, cost int64
	for _, b := range blocks {
		res := s.Search(b, w, policy.PredFor(0, 3))
		evals += int64(res.Evals)
		cost += res.Cost
	}
	n := int64(len(blocks))
	fmt.Printf("%-16s %10.1f %12.2f %12s %8d   ← proposed GOP policy (frame 3: %T)\n",
		"policy", float64(evals)/float64(n), float64(cost)/float64(n*16*16), "-", w, s)
}
