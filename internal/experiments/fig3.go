package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/medgen"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/tiling"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig3Options parametrizes the Fig. 3 run (one representative video, one
// GOP, compare the tile structure and per-tile CPU time of the proposed
// approach against [19]).
type Fig3Options struct {
	Video medgen.Config
}

// DefaultFig3Options uses a rotating brain study at the paper's geometry.
func DefaultFig3Options() Fig3Options {
	v := medgen.Default()
	v.Frames = 16
	return Fig3Options{Video: v}
}

// TileCPU is one tile with its modelled CPU time on the platform.
type TileCPU struct {
	Tile tiling.Tile
	CPU  time.Duration
}

// Fig3Side is one subfigure: the tile structure, per-tile CPU time and the
// resulting allocation footprint.
type Fig3Side struct {
	Name       string
	Tiles      []TileCPU
	TotalCPU   time.Duration
	CoresUsed  int
	CoresAtMax int
}

// Fig3Result pairs both approaches.
type Fig3Result struct {
	Proposed Fig3Side
	Baseline Fig3Side
	// TimeScale is the derived modelled-to-platform time factor.
	TimeScale float64
}

// RunFig3 encodes the video with both approaches, takes the modelled
// per-tile CPU times of the second GOP (warm LUT, steady tiling), scales
// them to the simulated platform, and allocates threads to cores to count
// the cores each approach needs and how many must run at fmax.
func RunFig3(opt Fig3Options) (*Fig3Result, error) {
	platform := mpsoc.XeonE5_2667V4()

	// The paper's baseline frame needs ≈5 cores at 24 FPS (5 × 41.7 ms ≈
	// 0.21 s of CPU per frame; Fig. 3(a) shows 0.159 s on 5 capacity tiles).
	gen, err := medgen.NewGenerator(opt.Video)
	if err != nil {
		return nil, err
	}
	scale, baselineTiles, err := calibrate([]*medgen.Generator{gen}, 4.5)
	if err != nil {
		return nil, err
	}

	measure := func(mode core.Mode) (*core.GOPReport, error) {
		sess, err := core.NewSession(0, gen, modeConfig(mode, baselineTiles), workload.NewLUT())
		if err != nil {
			return nil, err
		}
		// First GOP warms the LUT and the tiling; the second is measured.
		if _, err := sess.EncodeGOP(); err != nil {
			return nil, err
		}
		return sess.EncodeGOP()
	}

	prop, err := measure(core.ModeProposed)
	if err != nil {
		return nil, err
	}
	base, err := measure(core.ModeBaseline)
	if err != nil {
		return nil, err
	}

	build := func(name string, gop *core.GOPReport, mode core.Mode) (Fig3Side, error) {
		side := Fig3Side{Name: name}
		var threads []sched.Thread
		for i, cpu := range tileDemand(gop, scale) {
			side.Tiles = append(side.Tiles, TileCPU{Tile: gop.Grid.Tiles[i], CPU: cpu})
			side.TotalCPU += cpu
			threads = append(threads, sched.Thread{User: 0, Tile: i, TimeFmax: cpu})
		}
		in := sched.Input{Platform: platform, FPS: 24, Users: []sched.UserDemand{{User: 0, Threads: threads}}}
		alloc, err := allocatorFor(mode)(in)
		if err != nil {
			return side, err
		}
		side.CoresUsed = alloc.CoresUsed
		for _, plan := range alloc.Plans {
			if plan.LoadAtFmax > 0 && (plan.LoadAtFmax >= slot || plan.IdleLevel == platform.MaxLevel()) {
				side.CoresAtMax++
			}
		}
		return side, nil
	}

	res := &Fig3Result{TimeScale: scale}
	if res.Baseline, err = build("work of [19]", base, core.ModeBaseline); err != nil {
		return nil, err
	}
	if res.Proposed, err = build("proposed", prop, core.ModeProposed); err != nil {
		return nil, err
	}
	return res, nil
}

// Render writes both subfigures as text tables.
func (r *Fig3Result) Render(w io.Writer) error {
	for _, side := range []Fig3Side{r.Baseline, r.Proposed} {
		t := trace.NewTable(
			fmt.Sprintf("Fig. 3 — tile structure and per-tile CPU time: %s", side.Name),
			"tile", "rect", "region", "cpu/frame")
		for i, tc := range side.Tiles {
			t.AddRow(fmt.Sprint(i), tc.Tile.Rect.String(), tc.Tile.Region.String(), fmtDuration(tc.CPU))
		}
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "total %.1fms/frame → %d cores used, %d at fmax\n\n",
			float64(side.TotalCPU.Microseconds())/1000, side.CoresUsed, side.CoresAtMax); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "(paper: [19] uses 5 cores all at fmax; proposed uses 3 cores, 2 at fmax; timescale %.1fx)\n", r.TimeScale)
	return err
}
