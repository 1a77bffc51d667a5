package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/mpsoc"
	"repro/internal/trace"
)

// Table2Options parametrizes the Table II run: a saturated user queue on
// the 32-core platform, proposed vs [19].
type Table2Options struct {
	// QueueLen is the number of waiting users (must exceed capacity; the
	// paper keeps the queue always full).
	QueueLen int
	// FramesPerVideo bounds each user's video length (at least two GOPs:
	// calibrate reads the second).
	FramesPerVideo int
	// BaselineCoresPerUser anchors the TimeScale calibration: [19] sizes
	// each tile to fill one core's slot capacity, and the paper's Table II
	// regime has the baseline serving ≈15 users on 32 cores ≈ 2 cores per
	// user. The proposed mode's demand then follows from the modelled
	// work ratio between the two approaches (see calibrate).
	BaselineCoresPerUser float64
	// Width, Height of the corpus videos.
	Width, Height int
}

// DefaultTable2Options returns a trimmed version of the paper's setup.
func DefaultTable2Options() Table2Options {
	return Table2Options{
		QueueLen:             40,
		FramesPerVideo:       48,
		BaselineCoresPerUser: 2,
		Width:                640,
		Height:               480,
	}
}

// Table2Side aggregates one approach's outcome.
type Table2Side struct {
	Name          string
	UsersServed   int
	MaxPSNR       float64
	MinPSNR       float64
	AvgPSNR       float64
	MaxMbps       float64
	MinMbps       float64
	AvgMbps       float64
	AvgPowerWatts float64
}

// Table2Result pairs both approaches plus the calibration derived for them.
type Table2Result struct {
	Proposed, Baseline Table2Side
	TimeScale          float64
	BaselineTiles      int
}

// RunTable2 reproduces Table II: a saturated queue of users, each
// transcoding one corpus video; the proposed approach and [19] each admit
// as many users as fit and encode one GOP round; PSNR, bitrate and user
// counts are aggregated over the admitted sessions.
func RunTable2(opt Table2Options) (*Table2Result, error) {
	if opt.QueueLen <= 0 || opt.FramesPerVideo <= 0 {
		return nil, fmt.Errorf("experiments: bad table2 options %+v", opt)
	}
	corpus, err := buildCorpus(opt.Width, opt.Height, opt.FramesPerVideo)
	if err != nil {
		return nil, err
	}
	// Two videos suffice for the mean the anchor is set against.
	timeScale, baselineTiles, err := calibrate(corpus[:2], opt.BaselineCoresPerUser)
	if err != nil {
		return nil, err
	}
	res := &Table2Result{TimeScale: timeScale, BaselineTiles: baselineTiles}

	run := func(mode core.Mode, name string) (Table2Side, error) {
		side := Table2Side{Name: name}
		srv, err := core.NewServer(core.ServerConfig{
			Platform:  mpsoc.XeonE5_2667V4(),
			FPS:       24,
			Allocator: allocatorFor(mode),
			TimeScale: timeScale,
		})
		if err != nil {
			return side, err
		}
		cfg := modeConfig(mode, baselineTiles)
		for i := 0; i < opt.QueueLen; i++ {
			if _, err := srv.Submit(corpus[i%len(corpus)], cfg); err != nil {
				return side, err
			}
		}
		// Pre-warm every body-part class's shared workload LUT with one
		// GOP encoded outside the served queue, then run two admission
		// rounds and report the second. This matches the paper's
		// steady-state regime: the LUT of one MRI/CT study transfers to
		// all other videos of the same class (Sec. III-D1), so a running
		// server never prices a known class at the cold prior.
		for _, g := range corpus {
			warm, err := core.NewSession(0, g, cfg, srv.Store().ForClass(g.Class()))
			if err != nil {
				return side, err
			}
			if _, err := warm.EncodeGOP(); err != nil {
				return side, err
			}
		}
		var out *core.GOPOutcome
		for round := 0; round < 2; round++ {
			out, err = srv.ServeGOP()
			if err != nil {
				return side, err
			}
		}
		side.UsersServed = len(out.AdmittedUsers)
		side.AvgPowerWatts = out.Energy.AvgPowerW
		side.MinPSNR, side.MinMbps = math.Inf(1), math.Inf(1)
		var psnrSum, mbpsSum float64
		for _, id := range out.AdmittedUsers {
			gop := out.GOPs[id]
			mbps := gop.MeanKbps / 1000
			psnrSum += gop.MeanPSNR
			mbpsSum += mbps
			side.MaxPSNR = math.Max(side.MaxPSNR, gop.MeanPSNR)
			side.MinPSNR = math.Min(side.MinPSNR, gop.MeanPSNR)
			side.MaxMbps = math.Max(side.MaxMbps, mbps)
			side.MinMbps = math.Min(side.MinMbps, mbps)
		}
		if side.UsersServed > 0 {
			side.AvgPSNR = psnrSum / float64(side.UsersServed)
			side.AvgMbps = mbpsSum / float64(side.UsersServed)
		}
		return side, nil
	}

	if res.Proposed, err = run(core.ModeProposed, "Proposed"); err != nil {
		return nil, err
	}
	if res.Baseline, err = run(core.ModeBaseline, "Work [19]"); err != nil {
		return nil, err
	}
	return res, nil
}

// Render writes the result in the layout of the paper's Table II and the
// headline throughput ratio.
func (r *Table2Result) Render(w io.Writer) error {
	t := trace.NewTable("Table II — PSNR, bitrate and number of served users (saturated queue)",
		"approach", "", "PSNR (dB)", "Bitrate (Mbps)", "# of Users")
	add := func(s Table2Side) {
		t.AddRow(s.Name, "Max", fmt.Sprintf("%.1f", s.MaxPSNR), fmt.Sprintf("%.2f", s.MaxMbps), fmt.Sprint(s.UsersServed))
		t.AddRow("", "Min", fmt.Sprintf("%.1f", s.MinPSNR), fmt.Sprintf("%.2f", s.MinMbps), "")
		t.AddRow("", "Avg", fmt.Sprintf("%.1f", s.AvgPSNR), fmt.Sprintf("%.2f", s.AvgMbps), "")
	}
	add(r.Proposed)
	add(r.Baseline)
	if err := t.Render(w); err != nil {
		return err
	}
	ratio := 0.0
	if r.Baseline.UsersServed > 0 {
		ratio = float64(r.Proposed.UsersServed) / float64(r.Baseline.UsersServed)
	}
	_, err := fmt.Fprintf(w,
		"throughput ratio: %.2fx (paper: 23/15 ≈ 1.53x) — timescale %.1fx, baseline tiles %d\n",
		ratio, r.TimeScale, r.BaselineTiles)
	return err
}
