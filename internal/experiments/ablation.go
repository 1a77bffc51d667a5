package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/medgen"
	"repro/internal/trace"
	"repro/internal/workload"
)

// AblationOptions parametrizes the pipeline ablation study (DESIGN.md §3):
// each variant removes one contribution from the proposed pipeline.
type AblationOptions struct {
	Video medgen.Config
	// GOPs to encode per variant (after a warm-up GOP).
	GOPs int
}

// DefaultAblationOptions uses the Fig. 3 video.
func DefaultAblationOptions() AblationOptions {
	v := medgen.Default()
	v.Frames = 32
	return AblationOptions{Video: v, GOPs: 3}
}

// AblationRow is one variant's outcome.
type AblationRow struct {
	Variant string
	// CPUPerFrame is the modelled CPU time per frame (TileStats.Work, unscaled).
	CPUPerFrame time.Duration
	// Cores is the per-user core demand at 24 FPS.
	Cores float64
	PSNR  float64
	Kbps  float64
	Tiles int
}

// AblationResult is the full study.
type AblationResult struct {
	Rows []AblationRow
}

// ablationVariants lists the pipeline variants in presentation order.
var ablationVariants = []struct {
	name   string
	mutate func(*core.SessionConfig)
}{
	{"proposed (full)", func(c *core.SessionConfig) {}},
	{"no re-tiling (uniform 4x4)", func(c *core.SessionConfig) { c.DisableRetile = true }},
	{"no QP adaptation", func(c *core.SessionConfig) { c.DisableQPAdapt = true }},
	{"no fast ME (TZ everywhere)", func(c *core.SessionConfig) { c.DisableFastME = true }},
	{"baseline [19]", func(c *core.SessionConfig) {
		c.Mode = core.ModeBaseline
		c.BaselineTiles = 5
	}},
}

// RunAblation encodes the same video under every pipeline variant and
// reports per-frame CPU (modelled, unscaled), core demand, PSNR
// and bitrate — isolating what each contribution buys.
func RunAblation(opt AblationOptions) (*AblationResult, error) {
	if opt.GOPs <= 0 {
		return nil, fmt.Errorf("experiments: bad ablation options %+v", opt)
	}
	gen, err := medgen.NewGenerator(opt.Video)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{}
	for _, v := range ablationVariants {
		cfg := modeConfig(core.ModeProposed, 0)
		v.mutate(&cfg)
		sess, err := core.NewSession(0, gen, cfg, workload.NewLUT())
		if err != nil {
			return nil, err
		}
		// Warm-up GOP (LUT, tiling, QP state), then measure.
		if _, err := sess.EncodeGOP(); err != nil {
			return nil, err
		}
		var cpu time.Duration
		var psnr, kbps float64
		var frames, tiles int
		for g := 0; g < opt.GOPs && !sess.Finished(); g++ {
			gop, err := sess.EncodeGOP()
			if err != nil {
				return nil, err
			}
			cpu += gop.Work
			psnr += gop.MeanPSNR
			kbps += gop.MeanKbps
			frames += len(gop.Frames)
			tiles = gop.Grid.NumTiles()
		}
		perFrame := cpu / time.Duration(frames)
		res.Rows = append(res.Rows, AblationRow{
			Variant:     v.name,
			CPUPerFrame: perFrame,
			Cores:       math.Ceil(perFrame.Seconds()/slot.Seconds()*100) / 100,
			PSNR:        psnr / float64(opt.GOPs),
			Kbps:        kbps / float64(opt.GOPs),
			Tiles:       tiles,
		})
	}
	return res, nil
}

// Render writes the study as a table.
func (r *AblationResult) Render(w io.Writer) error {
	t := trace.NewTable("Pipeline ablation — what each contribution buys (modelled time)",
		"variant", "tiles", "CPU/frame", "cores@24fps", "PSNR (dB)", "kbps")
	for _, row := range r.Rows {
		t.AddRow(row.Variant, fmt.Sprint(row.Tiles), fmtDuration(row.CPUPerFrame),
			fmt.Sprintf("%.2f", row.Cores), fmt.Sprintf("%.1f", row.PSNR), fmt.Sprintf("%.0f", row.Kbps))
	}
	return t.Render(w)
}
