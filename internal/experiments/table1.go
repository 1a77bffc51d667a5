package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/analysis"
	"repro/internal/codec"
	"repro/internal/medgen"
	"repro/internal/motion"
	"repro/internal/tiling"
	"repro/internal/trace"
	"repro/internal/video"
)

// table1Tilings is the paper's uniform tiling sweep (n×m = width/height
// divisors).
var table1Tilings = [][2]int{
	{1, 1}, {2, 1}, {2, 2}, {2, 3}, {2, 4}, {5, 2}, {4, 3}, {5, 3}, {5, 4}, {4, 6}, {5, 6},
}

// Table1Options parametrizes the Table I run.
type Table1Options struct {
	// Frames is the clip length (paper: 400).
	Frames int
	// Width, Height of the clip (paper: 640×480).
	Width, Height int
	// QP fixes quantization so the comparison isolates motion estimation.
	QP int
	// Video selects the corpus entry; zero value uses a rotating brain
	// study, the dominant diagnostic pattern.
	Video medgen.Config
}

// DefaultTable1Options returns the paper's setup (trimmed frame count; the
// 400-frame run is selected by cmd/experiments -frames 400).
func DefaultTable1Options() Table1Options {
	v := medgen.Default()
	v.Frames = 96
	return Table1Options{Frames: 96, Width: 640, Height: 480, QP: 32, Video: v}
}

// Table1Row is one tiling column of Table I for one method.
type Table1Row struct {
	NX, NY int
	// Speedup is encode-CPU-time(TZ) / encode-CPU-time(method).
	Speedup float64
	// EvalSpeedup is SAD-evaluations(TZ) / SAD-evaluations(method) — a
	// host-noise-free complexity ratio reported alongside wall time.
	EvalSpeedup float64
	// PSNRLoss is PSNR(TZ) − PSNR(method) in dB.
	PSNRLoss float64
	// CompressionLoss is the bitrate increase vs TZ in percent.
	CompressionLoss float64
}

// projectedSpeedup applies Amdahl's law to the measured SAD-evaluation
// reduction at a given motion-estimation time share. The paper's encoder
// (Kvazaar) spends roughly 70–80% of its time in ME; this repository's
// leaner codec spends ~30%, so the measured end-to-end speedup understates
// what the same ME reduction yields on the paper's substrate. At a 75% ME
// share the projection lands in the paper's 4–5× regime.
func (r Table1Row) projectedSpeedup(meShare float64) float64 {
	if r.EvalSpeedup <= 0 {
		return 0
	}
	return 1 / ((1 - meShare) + meShare/r.EvalSpeedup)
}

// Table1Result holds both method sweeps.
type Table1Result struct {
	Proposed []Table1Row
	Hexagon  []Table1Row
	// MeanProposedSpeedup supports the paper's "4× on average" claim.
	MeanProposedSpeedup float64
}

// methodRun is the measured outcome of encoding the clip one way.
type methodRun struct {
	cpu   time.Duration
	evals int
	psnr  float64
	bits  int
}

// RunTable1 reproduces Table I: for every uniform tiling, encode the clip
// with (a) TZ search, (b) plain rotating hexagon search, (c) the proposed
// GOP-aware combined search, all at one fixed QP, and compare speed, PSNR
// and bitrate against TZ.
func RunTable1(opt Table1Options) (*Table1Result, error) {
	if opt.Frames <= 0 || opt.Width <= 0 || opt.Height <= 0 {
		return nil, fmt.Errorf("experiments: bad table1 options %+v", opt)
	}
	video := opt.Video
	video.Width, video.Height = opt.Width, opt.Height
	video.Frames = opt.Frames
	gen, err := medgen.NewGenerator(video)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{}
	var speedupSum float64
	for _, t := range table1Tilings {
		grid, err := tiling.Uniform(opt.Width, opt.Height, t[0], t[1])
		if err != nil {
			return nil, err
		}
		tz, err := runTable1Method(opt, gen, grid, "tz")
		if err != nil {
			return nil, err
		}
		hex, err := runTable1Method(opt, gen, grid, "hex")
		if err != nil {
			return nil, err
		}
		prop, err := runTable1Method(opt, gen, grid, "proposed")
		if err != nil {
			return nil, err
		}
		res.Proposed = append(res.Proposed, compareRow(t, tz, prop))
		res.Hexagon = append(res.Hexagon, compareRow(t, tz, hex))
		speedupSum += res.Proposed[len(res.Proposed)-1].Speedup
	}
	res.MeanProposedSpeedup = speedupSum / float64(len(table1Tilings))
	return res, nil
}

func compareRow(t [2]int, tz, m methodRun) Table1Row {
	row := Table1Row{NX: t[0], NY: t[1]}
	if m.cpu > 0 {
		row.Speedup = tz.cpu.Seconds() / m.cpu.Seconds()
	}
	if m.evals > 0 {
		row.EvalSpeedup = float64(tz.evals) / float64(m.evals)
	}
	row.PSNRLoss = tz.psnr - m.psnr
	if tz.bits > 0 {
		row.CompressionLoss = (float64(m.bits)/float64(tz.bits) - 1) * 100
	}
	return row
}

// runTable1Method encodes the clip over the fixed uniform grid with one of
// the three search strategies.
func runTable1Method(opt Table1Options, gen *medgen.Generator, grid *tiling.Grid, method string) (methodRun, error) {
	ccfg := codec.DefaultConfig()
	ccfg.Width, ccfg.Height = opt.Width, opt.Height
	ccfg.FPS = gen.FPS()
	ccfg.IntraPeriod = 48
	enc, err := codec.NewEncoder(ccfg)
	if err != nil {
		return methodRun{}, err
	}
	policy, err := motion.NewGOPPolicy(motion.DefaultPolicyConfig())
	if err != nil {
		return methodRun{}, err
	}
	acfg := analysis.DefaultConfig()

	var run methodRun
	var psnrSum float64
	var motionClass []analysis.MotionClass
	for n := 0; n < opt.Frames; n++ {
		f := gen.Frame(n)
		frameInGOP := ccfg.FrameInGOP(n)
		if frameInGOP == 0 {
			// GOP boundary: re-evaluate tile motion classes against the
			// encoder's reference and reset the direction policy.
			var prev = refLuma(enc)
			ev, err := analysis.NewEvaluator(acfg, f.Y, prev)
			if err != nil {
				return methodRun{}, err
			}
			tcs, err := ev.EvaluateGrid(grid)
			if err != nil {
				return methodRun{}, err
			}
			motionClass = motionClass[:0]
			for _, tc := range tcs {
				motionClass = append(motionClass, tc.Motion)
			}
			policy.Reset()
		}
		params := make([]codec.TileParams, grid.NumTiles())
		for i := range params {
			params[i] = codec.TileParams{QP: opt.QP}
			switch method {
			case "tz":
				params[i].Searcher = motion.TZSearch{}
				params[i].Window = 64
			case "hex":
				params[i].Searcher = motion.Hexagon{Orientation: motion.HexRotating}
				params[i].Window = 64
			case "proposed":
				high := motionClass[i] == analysis.MotionHigh
				s, w := policy.Choose(i, high, frameInGOP)
				params[i].Searcher = s
				params[i].Window = w
				params[i].Pred = policy.PredFor(i, frameInGOP)
			default:
				return methodRun{}, fmt.Errorf("experiments: unknown method %q", method)
			}
		}
		stats, _, err := enc.EncodeFrame(f, grid, params)
		if err != nil {
			return methodRun{}, err
		}
		if method == "proposed" && frameInGOP == 0 && stats.Type == codec.FrameP {
			for i, ts := range stats.Tiles {
				policy.Observe(i, ts.MeanMV)
			}
		}
		run.cpu += stats.EncodeTime
		run.evals += stats.SearchEvals
		run.bits += stats.Bits
		psnrSum += stats.PSNR
	}
	run.psnr = psnrSum / float64(opt.Frames)
	return run, nil
}

func refLuma(enc *codec.Encoder) *video.Plane {
	if r := enc.Reference(); r != nil {
		return r.Y
	}
	return nil
}

// Render writes the result in the layout of the paper's Table I, plus the
// headline average.
func (r *Table1Result) Render(w io.Writer) error {
	header := []string{"method", "metric"}
	for _, tl := range table1Tilings {
		header = append(header, fmt.Sprintf("%dx%d", tl[0], tl[1]))
	}
	t := trace.NewTable("Table I — speedup, PSNR loss and bitrate loss vs TZ search (uniform tiling)", header...)
	addRows := func(name string, rows []Table1Row) {
		speed := []string{name, "Speedup (x)"}
		evals := []string{name, "SAD-eval speedup (x)"}
		proj := []string{name, "Projected @75% ME (x)"}
		psnr := []string{name, "PSNR loss (dB)"}
		comp := []string{name, "Compression loss (%)"}
		for _, row := range rows {
			speed = append(speed, fmt.Sprintf("%.1f", row.Speedup))
			evals = append(evals, fmt.Sprintf("%.1f", row.EvalSpeedup))
			proj = append(proj, fmt.Sprintf("%.1f", row.projectedSpeedup(0.75)))
			psnr = append(psnr, fmt.Sprintf("%.2f", row.PSNRLoss))
			comp = append(comp, fmt.Sprintf("%.1f", row.CompressionLoss))
		}
		t.AddRow(speed...)
		t.AddRow(evals...)
		t.AddRow(proj...)
		t.AddRow(psnr...)
		t.AddRow(comp...)
	}
	addRows("Proposed", r.Proposed)
	addRows("Hexagonal", r.Hexagon)
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "mean proposed speedup: %.1fx (paper: ~4x)\n", r.MeanProposedSpeedup)
	return err
}
