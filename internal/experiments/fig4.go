package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fig4UserCounts is the paper's x-axis.
var fig4UserCounts = []int{1, 2, 3, 4, 5, 6, 8, 10, 12}

// Fig4Options parametrizes the power-savings sweep.
type Fig4Options struct {
	// BaselineCoresPerUser anchors the calibration (see Table2Options).
	BaselineCoresPerUser float64
	// Width, Height of the corpus videos.
	Width, Height int
	// FramesPerVideo bounds each corpus video's length (at least two GOPs:
	// calibrate reads the second).
	FramesPerVideo int
}

// DefaultFig4Options mirrors the Table II calibration.
func DefaultFig4Options() Fig4Options {
	return Fig4Options{BaselineCoresPerUser: 2, Width: 640, Height: 480, FramesPerVideo: 16}
}

// Fig4Point is one bar of the figure.
type Fig4Point struct {
	Users         int
	ProposedWatts float64
	BaselineWatts float64
	SavingsPct    float64
}

// Fig4Result is the full sweep.
type Fig4Result struct {
	Points []Fig4Point
	// AvgSavingsPct supports the paper's "44% average" claim.
	AvgSavingsPct float64
	TimeScale     float64
	BaselineTiles int
}

// RunFig4 reproduces Fig. 4: for each user count, both approaches serve
// the same users (equal throughput) and the platform simulator reports the
// average power; the figure is the per-count savings of the proposed
// approach over [19].
//
// Power depends only on the allocation and the DVFS plan, so after one
// encode pass the sweep runs on recorded thread demands without
// re-encoding — exactly how the scheduler consumes the workload LUT.
func RunFig4(opt Fig4Options) (*Fig4Result, error) {
	platform := mpsoc.XeonE5_2667V4()
	corpus, err := buildCorpus(opt.Width, opt.Height, opt.FramesPerVideo)
	if err != nil {
		return nil, err
	}
	timeScale, baselineTiles, err := calibrate(corpus[:2], opt.BaselineCoresPerUser)
	if err != nil {
		return nil, err
	}

	// Per-video thread demands for both modes (one GOP each), reused
	// across user counts.
	propDemand := make([][]time.Duration, len(corpus))
	baseDemand := make([][]time.Duration, len(corpus))
	for vi, g := range corpus {
		for _, mode := range []core.Mode{core.ModeProposed, core.ModeBaseline} {
			sess, err := core.NewSession(0, g, modeConfig(mode, baselineTiles), workload.NewLUT())
			if err != nil {
				return nil, err
			}
			gop, err := sess.EncodeGOP()
			if err != nil {
				return nil, err
			}
			perTile := tileDemand(gop, timeScale)
			if mode == core.ModeProposed {
				propDemand[vi] = perTile
			} else {
				baseDemand[vi] = perTile
			}
		}
	}

	mkUsers := func(n int, demands [][]time.Duration) []sched.UserDemand {
		var users []sched.UserDemand
		for u := 0; u < n; u++ {
			d := demands[u%len(demands)]
			ud := sched.UserDemand{User: u}
			for i, cpu := range d {
				ud.Threads = append(ud.Threads, sched.Thread{User: u, Tile: i, TimeFmax: cpu})
			}
			users = append(users, ud)
		}
		return users
	}

	res := &Fig4Result{TimeScale: timeScale, BaselineTiles: baselineTiles}
	var sum float64
	for _, n := range fig4UserCounts {
		prop, err := allocatorFor(core.ModeProposed)(sched.Input{Platform: platform, FPS: 24, Users: mkUsers(n, propDemand)})
		if err != nil {
			return nil, err
		}
		base, err := allocatorFor(core.ModeBaseline)(sched.Input{Platform: platform, FPS: 24, Users: mkUsers(n, baseDemand)})
		if err != nil {
			return nil, err
		}
		if len(prop.Admitted) != n || len(base.Admitted) != n {
			return nil, fmt.Errorf("experiments: fig4 with %d users admitted %d/%d — raise capacity or lower BaselineCoresPerUser",
				n, len(prop.Admitted), len(base.Admitted))
		}
		eProp, err := platform.SimulateSlot(prop.Plans, slot)
		if err != nil {
			return nil, err
		}
		eBase, err := platform.SimulateSlot(base.Plans, slot)
		if err != nil {
			return nil, err
		}
		pt := Fig4Point{
			Users:         n,
			ProposedWatts: eProp.AvgPowerW,
			BaselineWatts: eBase.AvgPowerW,
			SavingsPct:    (1 - eProp.AvgPowerW/eBase.AvgPowerW) * 100,
		}
		res.Points = append(res.Points, pt)
		sum += pt.SavingsPct
	}
	res.AvgSavingsPct = sum / float64(len(res.Points))
	return res, nil
}

// Render writes the table, an ASCII bar chart and the headline average.
func (r *Fig4Result) Render(w io.Writer) error {
	t := trace.NewTable("Fig. 4 — average power savings vs [19] at equal throughput",
		"users", "proposed (W)", "[19] (W)", "savings (%)")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.Users),
			fmt.Sprintf("%.1f", p.ProposedWatts),
			fmt.Sprintf("%.1f", p.BaselineWatts),
			fmt.Sprintf("%.1f", p.SavingsPct))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	for _, p := range r.Points {
		bar := int(p.SavingsPct / 2)
		if bar < 0 {
			bar = 0
		}
		if _, err := fmt.Fprintf(w, "%3d users |%s %.0f%%\n", p.Users, strings.Repeat("#", bar), p.SavingsPct); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "average savings: %.0f%% (paper: 44%%)\n", r.AvgSavingsPct)
	return err
}
