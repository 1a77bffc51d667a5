package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/mpsoc"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Table2Options parametrizes the Table II run: a saturated user queue on
// the 32-core platform, proposed vs [19].
type Table2Options struct {
	// QueueLen is the number of waiting users (must exceed capacity; the
	// paper keeps the queue always full).
	QueueLen int
	// FramesPerVideo bounds each user's video length.
	FramesPerVideo int
	// BaselineCoresPerUser anchors the TimeScale calibration: [19] sizes
	// each tile to fill one core's slot capacity, and the paper's Table II
	// regime has the baseline serving ≈15 users on 32 cores ≈ 2 cores per
	// user. The proposed mode's demand then follows from the measured
	// CPU ratio between the two approaches.
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

// Table2Result pairs both approaches plus the calibration actually used.
type Table2Result struct {
	Proposed, Baseline Table2Side
	TimeScale          float64
	BaselineTiles      int
}

// calibrate derives the three platform-calibration values shared by the
// Table II and Fig. 4 runs:
//
//   - the Kvazaar ME-inflation model (see KvazaarTimeModel);
//   - TimeScale, so the average proposed-mode user demands
//     opt.TargetUserCores cores;
//   - the baseline's capacity tile count ([19] sizes each tile to fill
//     one core's slot capacity).
func calibrate(opt Table2Options) (model TimeModel, timeScale float64, baselineTiles int, err error) {
	slot := time.Second / 24
	corpus := Corpus(opt.Width, opt.Height, opt.FramesPerVideo)

	r, err := CalibrateMEInflation(corpus[0])
	if err != nil {
		return nil, 0, 0, err
	}
	model = KvazaarTimeModel(r)

	meanFrameCPU := func(mode core.Mode) (time.Duration, error) {
		var total time.Duration
		var frames int
		for _, vc := range corpus[:2] { // two videos suffice for a mean
			src, err := sourceFor(vc)
			if err != nil {
				return 0, err
			}
			cfg := core.DefaultSessionConfig()
			cfg.Mode = mode
			if mode == core.ModeBaseline {
				cfg.BaselineTiles = 5
			}
			sess, err := core.NewSession(0, src, cfg, workload.NewLUT())
			if err != nil {
				return 0, err
			}
			gop, err := sess.EncodeGOP()
			if err != nil {
				return 0, err
			}
			for _, fr := range gop.Frames {
				for _, ts := range fr.Tiles {
					total += model(ts)
				}
			}
			frames += len(gop.Frames)
		}
		return total / time.Duration(frames), nil
	}

	baseCPU, err := meanFrameCPU(core.ModeBaseline)
	if err != nil {
		return nil, 0, 0, err
	}
	anchor := opt.BaselineCoresPerUser
	if anchor <= 0 {
		anchor = 2
	}
	timeScale = anchor * slot.Seconds() / baseCPU.Seconds()
	baselineTiles = int(math.Round(anchor))
	if baselineTiles < 1 {
		baselineTiles = 1
	}
	return model, timeScale, baselineTiles, nil
}

// RunTable2 reproduces Table II: a saturated queue of users, each
// transcoding one corpus video; the proposed approach and [19] each admit
// as many users as fit and encode one GOP round; PSNR, bitrate and user
// counts are aggregated over the admitted sessions.
func RunTable2(opt Table2Options) (*Table2Result, error) {
	if opt.QueueLen <= 0 || opt.FramesPerVideo <= 0 {
		return nil, fmt.Errorf("experiments: bad table2 options %+v", opt)
	}
	model, timeScale, baselineTiles, err := calibrate(opt)
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
		corpus := Corpus(opt.Width, opt.Height, opt.FramesPerVideo)
		for i := 0; i < opt.QueueLen; i++ {
			src, err := sourceFor(corpus[i%len(corpus)])
			if err != nil {
				return side, err
			}
			cfg := core.DefaultSessionConfig()
			cfg.Mode = mode
			cfg.BaselineTiles = baselineTiles
			cfg.TimeModel = model
			if _, err := srv.Submit(src, cfg); err != nil {
				return side, err
			}
		}
		// Pre-warm every body-part class's shared workload LUT with one
		// GOP encoded outside the served queue, then run two admission
		// rounds and report the second. This matches the paper's
		// steady-state regime: the LUT of one MRI/CT study transfers to
		// all other videos of the same class (Sec. III-D1), so a running
		// server never prices a known class at the cold prior.
		for _, vc := range corpus {
			src, err := sourceFor(vc)
			if err != nil {
				return side, err
			}
			cfg := core.DefaultSessionConfig()
			cfg.Mode = mode
			cfg.BaselineTiles = baselineTiles
			cfg.TimeModel = model
			warm, err := core.NewSession(0, src, cfg, srv.Store().ForClass(vc.Class.String()))
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

// Table renders the result in the layout of the paper's Table II.
func (r *Table2Result) Table() *trace.Table {
	t := trace.NewTable("Table II — PSNR, bitrate and number of served users (saturated queue)",
		"approach", "", "PSNR (dB)", "Bitrate (Mbps)", "# of Users")
	add := func(s Table2Side) {
		t.AddRow(s.Name, "Max", fmt.Sprintf("%.1f", s.MaxPSNR), fmt.Sprintf("%.2f", s.MaxMbps), fmt.Sprint(s.UsersServed))
		t.AddRow("", "Min", fmt.Sprintf("%.1f", s.MinPSNR), fmt.Sprintf("%.2f", s.MinMbps), "")
		t.AddRow("", "Avg", fmt.Sprintf("%.1f", s.AvgPSNR), fmt.Sprintf("%.2f", s.AvgMbps), "")
	}
	add(r.Proposed)
	add(r.Baseline)
	return t
}

// Render writes the table and the headline throughput ratio.
func (r *Table2Result) Render(w io.Writer) error {
	if err := r.Table().Render(w); err != nil {
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
