package main

import (
	"time"

	"repro/internal/codec"
	"repro/internal/core"
)

// Ground rules shared by every workload. FROZEN with the benchmark: the
// numbers of one commit are only comparable with another's when both ran
// the same geometry, GOP structure and cost model.
const (
	frameW, frameH = 320, 240
	frameFPS       = 24.0
	gopSize        = 8
	intraPeriod    = 48
	// warmRounds are served before the measured window opens, so LUTs are
	// warm and the codec's pools are filled when timing starts.
	warmRounds = 8
	// clipFrames is the length of one pre-rendered clip; sessions play it
	// ping-pong, so a clip of any length makes a video of any length with
	// no loop discontinuity.
	clipFrames = 24
)

// Work-model coefficients: nanoseconds of modelled encode time per pixel of
// tile area, per motion-search evaluation and per coded bit. A least-squares
// fit of this codec's measured TileStats.EncodeTime over 33,648 tiles of
// both steady workloads on the sandbox gave 21.3 / 223.7 / 135.7 (median
// relative error 0.31, summed time within 1%); the rounded values are
// frozen — the model does not have to be right, it has to be the same on
// every host.
const (
	modelNsPerPixel = 20
	modelNsPerEval  = 220
	modelNsPerBit   = 135
)

// modelTimeScale maps the modelled host time onto the simulated platform
// so one 320×240 session demands 2–4 cores (the paper's regime).
const modelTimeScale = 24.0

// workTime is the SessionConfig.TimeModel of every in-process workload: a
// pure function of the work counters in codec.TileStats. With it the
// workload LUTs — and through them admission, allocation, bits and
// simulated energy — are identical on every host and every run.
func workTime(ts codec.TileStats) time.Duration {
	return time.Duration(modelNsPerPixel*ts.Tile.Area() + modelNsPerEval*ts.SearchEvals + modelNsPerBit*ts.Bits)
}

// sessionConfig is the per-session configuration of a workload mode.
// modelled selects the deterministic work model; dist_live leaves it off
// because a func cannot cross the wire.
func sessionConfig(mode core.Mode, modelled bool) core.SessionConfig {
	cfg := core.DefaultSessionConfig()
	cfg.Mode = mode
	cfg.Codec.Width, cfg.Codec.Height = frameW, frameH
	cfg.Codec.FPS = frameFPS
	cfg.Codec.GOPSize = gopSize
	cfg.Codec.IntraPeriod = intraPeriod
	if mode == core.ModeBaseline {
		// Uniform 2×2 tiles, QP 32, TZ search in a 64 window. The tile
		// count is pinned: the default derives it from a wall-clock probe.
		cfg.BaselineTiles = 4
		cfg.BaselineQP = 32
		cfg.BaselineWindow = 64
	}
	if modelled {
		cfg.TimeModel = workTime
	}
	return cfg
}
