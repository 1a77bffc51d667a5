package experiments

import (
	"math"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/medgen"
	"repro/internal/workload"
)

// kvazaarNsPerEval is the search weight every scheduling experiment prices
// a tile's work at (codec.TileStats.Work), so the workload LUTs — and
// through them admission, allocation and simulated power — are the same on
// every host, run and GOMAXPROCS.
//
// The pixel and bit prices are the codec's fitted 20 / 135. Against this
// package's own corpus — all ten videos, proposed and baseline at 2 and 5
// tiles, 320×240 and 640×480, 6,848 tiles — those and the fitted search
// weight 220 price this codec's measured TileStats.EncodeTime with a
// median relative error of 0.25 (90th percentile 0.65) and the summed time
// within 13%; an unconstrained refit (36 / 215 / 121) does no better in the
// median (0.32).
//
// The search term is then weighted once, 220 → 330, for the encoder the
// paper measured: Kvazaar spends 70–80% of its time in motion estimation
// (many PU shapes per CTU at fractional-pel accuracy) where this codec's
// single integer-pel search per block leaves the [19] configuration at
// 0.63–0.71. At 330 the modelled ME share of the baseline's P-frames is
// 0.72–0.79 across both geometries and 2, 4 and 5 tiles (pinned by
// TestWorkTimeMEShare). The search *work* — evaluations, windows,
// algorithms — still comes from real execution; only its price is fixed.
const kvazaarNsPerEval = 330

// slot is one frame period at the paper's 24 FPS service rate.
const slot = time.Second / 24

// modeConfig is the default session configuration of one approach, priced
// at kvazaarNsPerEval; baselineTiles is [19]'s capacity tile count (the
// proposed mode ignores it).
func modeConfig(mode core.Mode, baselineTiles int) core.SessionConfig {
	cfg := core.DefaultSessionConfig()
	cfg.Mode = mode
	cfg.BaselineTiles = baselineTiles
	cfg.TimeModel = func(ts codec.TileStats) time.Duration { return ts.Work(kvazaarNsPerEval) }
	return cfg
}

// tileWork returns each tile's modelled CPU time summed over the GOP's
// frames, in grid order.
func tileWork(gop *core.GOPReport) []time.Duration {
	perTile := make([]time.Duration, len(gop.Grid.Tiles))
	for _, fr := range gop.Frames {
		for i, ts := range fr.Tiles {
			perTile[i] += ts.Work(kvazaarNsPerEval)
		}
	}
	return perTile
}

// tileDemand is tileWork per frame on the simulated platform: the thread
// demand stage D2 allocates.
func tileDemand(gop *core.GOPReport, timeScale float64) []time.Duration {
	perTile := tileWork(gop)
	for i := range perTile {
		perTile[i] = time.Duration(float64(perTile[i]) / float64(len(gop.Frames)) * timeScale)
	}
	return perTile
}

// calibrate derives the two platform-calibration values the scheduling
// experiments share, from work counters alone:
//
//   - the baseline's capacity tile count — [19] sizes each tile to fill one
//     core's slot, so a user anchored at anchorCores cores gets that many
//     tiles, rounded up (anchorCores ≤ 0 selects the Table II regime's 2);
//   - TimeScale, the factor that maps modelled time onto the simulated
//     platform so that the baseline's steady-state GOP of the given
//     videos demands anchorCores cores per user at 24 FPS. The proposed
//     mode's demand then follows from the work ratio between the two
//     approaches.
func calibrate(videos []*medgen.Generator, anchorCores float64) (timeScale float64, baselineTiles int, err error) {
	if anchorCores <= 0 {
		anchorCores = 2
	}
	baselineTiles = int(math.Ceil(anchorCores))
	var cpu time.Duration
	var frames int
	for _, g := range videos {
		sess, err := core.NewSession(0, g, modeConfig(core.ModeBaseline, baselineTiles), workload.NewLUT())
		if err != nil {
			return 0, 0, err
		}
		// The first GOP opens with an I-frame, which searches nothing; the
		// second is the steady state the experiments report.
		if _, err := sess.EncodeGOP(); err != nil {
			return 0, 0, err
		}
		gop, err := sess.EncodeGOP()
		if err != nil {
			return 0, 0, err
		}
		cpu += gop.Work
		frames += len(gop.Frames)
	}
	perFrame := cpu / time.Duration(frames)
	return anchorCores * slot.Seconds() / perFrame.Seconds(), baselineTiles, nil
}
