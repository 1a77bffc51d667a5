package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/medgen"
	"repro/internal/trace"
	"repro/internal/workload"
)

// LUTOptions parametrizes the workload-estimation convergence experiment
// (the paper's claim in Sec. III-D1: over/under-estimation below 100 µs
// once enough frames have been processed).
type LUTOptions struct {
	// GOPs is the number of GOPs to encode while tracking the error.
	GOPs  int
	Video medgen.Config
	// CrossVideo, when set, encodes a *different* video of the same class
	// with the warmed LUT to demonstrate cross-video reuse.
	CrossVideo *medgen.Config
}

// DefaultLUTOptions encodes several GOPs of a rotating brain study, then a
// panning brain study reusing the same LUT.
func DefaultLUTOptions() LUTOptions {
	v := medgen.Default()
	v.Frames = 64
	cross := medgen.Default()
	cross.Frames = 16
	cross.Motion = medgen.Pan
	cross.Seed = 7
	return LUTOptions{GOPs: 8, Video: v, CrossVideo: &cross}
}

// LUTPoint is the estimation error after one GOP.
type LUTPoint struct {
	GOP          int
	MeanAbsError time.Duration
	Observations uint64
}

// LUTResult is the convergence trace.
type LUTResult struct {
	Points []LUTPoint
	// FinalError is the error after the last GOP of the primary video.
	FinalError time.Duration
	// MeanTileTime is the average modelled tile time (TileStats.Work, what
	// the LUT learns), for putting the absolute error in proportion: its
	// floor is the spread of work inside one LUT key, not the estimator.
	MeanTileTime time.Duration
	// HostTileTime is the same tiles' average wall-clock EncodeTime on this
	// host — printed beside the modelled mean, never compared against.
	HostTileTime time.Duration
	// CrossVideoError is the error accumulated while encoding the second
	// same-class video with the shared LUT (0 when not requested).
	CrossVideoError time.Duration
}

// RunLUT encodes the video GOP by GOP, recording the workload LUT's mean
// absolute estimation error as it converges, then optionally replays a
// second same-class video against the warmed LUT. The LUT learns modelled
// work, so the trace is the same on every host.
func RunLUT(opt LUTOptions) (*LUTResult, error) {
	if opt.GOPs <= 0 {
		return nil, fmt.Errorf("experiments: bad LUT options %+v", opt)
	}
	lut := workload.NewLUT()
	cfg := modeConfig(core.ModeProposed, 0)
	gen, err := medgen.NewGenerator(opt.Video)
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(0, gen, cfg, lut)
	if err != nil {
		return nil, err
	}
	res := &LUTResult{}
	var tileTime, hostTime time.Duration
	var tiles int
	for g := 0; g < opt.GOPs && !sess.Finished(); g++ {
		gop, err := sess.EncodeGOP()
		if err != nil {
			return nil, err
		}
		for _, fr := range gop.Frames {
			for _, ts := range fr.Tiles {
				tileTime += ts.Work(kvazaarNsPerEval)
				hostTime += ts.EncodeTime
				tiles++
			}
		}
		e, n := lut.MeanAbsError()
		res.Points = append(res.Points, LUTPoint{GOP: g, MeanAbsError: e, Observations: n})
		res.FinalError = e
	}
	if tiles > 0 {
		res.MeanTileTime = tileTime / time.Duration(tiles)
		res.HostTileTime = hostTime / time.Duration(tiles)
	}
	if opt.CrossVideo != nil {
		gen2, err := medgen.NewGenerator(*opt.CrossVideo)
		if err != nil {
			return nil, err
		}
		sess2, err := core.NewSession(0, gen2, cfg, lut)
		if err != nil {
			return nil, err
		}
		before, beforeN := lut.MeanAbsError()
		for !sess2.Finished() {
			if _, err := sess2.EncodeGOP(); err != nil {
				return nil, err
			}
		}
		after, afterN := lut.MeanAbsError()
		// Isolate the cross-video contribution from the running average.
		if afterN > beforeN {
			total := time.Duration(int64(after)*int64(afterN) - int64(before)*int64(beforeN))
			res.CrossVideoError = total / time.Duration(afterN-beforeN)
		}
	}
	return res, nil
}

// Render writes the convergence trace.
func (r *LUTResult) Render(w io.Writer) error {
	t := trace.NewTable("Workload LUT convergence (paper: < 100 µs once warm)",
		"GOP", "mean abs error", "re-observations")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.GOP), p.MeanAbsError.String(), fmt.Sprint(p.Observations))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if r.CrossVideoError > 0 {
		if _, err := fmt.Fprintf(w, "same-class cross-video error with shared LUT: %v\n", r.CrossVideoError); err != nil {
			return err
		}
	}
	rel := 0.0
	if r.MeanTileTime > 0 {
		rel = float64(r.FinalError) / float64(r.MeanTileTime) * 100
	}
	_, err := fmt.Fprintf(w, "final error: %v (%.1f%% of the %s modelled mean tile time; this host's mean tile wall time: %s)\n",
		r.FinalError, rel, fmtDuration(r.MeanTileTime), fmtDuration(r.HostTileTime))
	return err
}
