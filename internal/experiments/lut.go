package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/codec"
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

// LUTPoint is stage D1's estimation error on one GOP: the mean absolute
// difference between what the LUT, as it stood before the GOP, priced each
// tile encode at and the work that encode cost.
type LUTPoint struct {
	GOP      int
	AbsError time.Duration
	// Tiles is the number of tile encodes priced.
	Tiles int
}

// LUTResult is the convergence trace.
type LUTResult struct {
	Points []LUTPoint
	// FinalError is the error on the last GOP of the primary video.
	FinalError time.Duration
	// MeanTileTime is the average modelled tile time (TileStats.Work, what
	// the LUT learns), for putting the absolute error in proportion: its
	// floor is the spread of work inside one LUT key, not the estimator.
	MeanTileTime time.Duration
	// HostTileTime is the same tiles' average wall-clock EncodeTime on this
	// host — printed beside the modelled mean, never compared against.
	HostTileTime time.Duration
	// CrossVideoError is the error over every GOP of the second same-class
	// video encoded with the shared LUT (0 when not requested).
	CrossVideoError time.Duration
}

// RunLUT encodes the video GOP by GOP and, for each GOP, prices its tile
// encodes on a copy of the LUT taken before the GOP — stage D1's own
// question: what the table priced against what the GOP cost. It then
// optionally replays a second same-class video against the warmed LUT.
// The LUT learns modelled work, so the trace is the same on every host.
func RunLUT(opt LUTOptions) (*LUTResult, error) {
	if opt.GOPs <= 0 {
		return nil, fmt.Errorf("experiments: bad LUT options %+v", opt)
	}
	cfg := modeConfig(core.ModeProposed, 0)
	gen, err := medgen.NewGenerator(opt.Video)
	if err != nil {
		return nil, err
	}
	store := workload.NewStore()
	sess, err := core.NewSession(0, gen, cfg, store.ForClass(gen.Class()))
	if err != nil {
		return nil, err
	}
	res := &LUTResult{}
	var tileTime, hostTime time.Duration
	var tiles int
	for g := 0; g < opt.GOPs && !sess.Finished(); g++ {
		before := store.Clone()
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
		sum, n := estimateError(before.ForClass(gen.Class()), gop, cfg.TimeModel)
		res.FinalError = sum / time.Duration(n)
		res.Points = append(res.Points, LUTPoint{GOP: g, AbsError: res.FinalError, Tiles: n})
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
		sess2, err := core.NewSession(0, gen2, cfg, store.ForClass(gen2.Class()))
		if err != nil {
			return nil, err
		}
		var sum time.Duration
		var n int
		for !sess2.Finished() {
			before := store.Clone()
			gop, err := sess2.EncodeGOP()
			if err != nil {
				return nil, err
			}
			s, k := estimateError(before.ForClass(gen2.Class()), gop, cfg.TimeModel)
			sum, n = sum+s, n+k
		}
		if n > 0 {
			res.CrossVideoError = sum / time.Duration(n)
		}
	}
	return res, nil
}

// estimateError prices every tile encode of gop on lut and returns the
// summed absolute error against the encode's work, and the tiles priced.
func estimateError(lut *workload.LUT, gop *core.GOPReport, work func(codec.TileStats) time.Duration) (time.Duration, int) {
	est := make(map[workload.Key]time.Duration)
	var keys []workload.Key
	for _, fr := range gop.Frames {
		for i, ts := range fr.Tiles {
			tc := gop.Contents[i]
			k := workload.MakeKey(ts.Tile.Area(), int(tc.Texture), int(tc.Motion), ts.QP, ts.Window)
			est[k] = 0
			keys = append(keys, k)
		}
	}
	lut.EstimateInto(est)
	var sum time.Duration
	var j int
	for _, fr := range gop.Frames {
		for _, ts := range fr.Tiles {
			sum += (est[keys[j]] - work(ts)).Abs()
			j++
		}
	}
	return sum, len(keys)
}

// Render writes the convergence trace.
func (r *LUTResult) Render(w io.Writer) error {
	t := trace.NewTable("Workload LUT convergence (paper: < 100 µs once warm)",
		"GOP", "mean abs error", "tiles priced")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.GOP), p.AbsError.String(), fmt.Sprint(p.Tiles))
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
