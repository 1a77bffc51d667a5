package experiments

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/medgen"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden renders under testdata/")

// checkGolden holds a rendered experiment to its committed bytes. Every
// scheduling experiment is priced by modelled work, so a render is a pure
// function of the commit: any drift — across runs, GOMAXPROCS or host
// load — is a failure, not noise.
func checkGolden(t *testing.T, name string, res interface{ Render(io.Writer) error }) {
	t.Helper()
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Fatalf("%s drifted from its golden (go test -update rewrites it):\n--- got\n%s--- want\n%s", name, sb.String(), want)
	}
}

// smallVideo trims geometry so experiment tests stay fast.
func smallVideo(frames int) medgen.Config {
	v := medgen.Default()
	v.Width, v.Height = 320, 240
	v.Frames = frames
	return v
}

func TestCorpusShape(t *testing.T) {
	c, err := buildCorpus(640, 480, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 10 {
		t.Fatalf("corpus has %d videos, want 10 (the paper's count)", len(c))
	}
	seen := make(map[string]bool)
	for _, g := range c {
		vc := g.Config()
		key := vc.Class.String() + "/" + vc.Motion.String()
		if seen[key] {
			t.Fatalf("duplicate corpus entry %s", key)
		}
		seen[key] = true
	}
}

// TestWorkTimeMEShare pins the committed prices to the cost structure
// they were weighted for: on [19]'s configuration of corpus entry 0 the
// modelled motion-estimation share of the first GOP's P-frames (the
// I-frame searches nothing) is Kvazaar's 70–80%. Counters only — no
// stopwatch reading enters the verdict.
func TestWorkTimeMEShare(t *testing.T) {
	corpus, err := buildCorpus(320, 240, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tiles := range []int{2, 5} { // the Table II and Fig. 3 tilings
		sess, err := core.NewSession(0, corpus[0], modeConfig(core.ModeBaseline, tiles), workload.NewLUT())
		if err != nil {
			t.Fatal(err)
		}
		gop, err := sess.EncodeGOP()
		if err != nil {
			t.Fatal(err)
		}
		var search, total time.Duration
		for _, fr := range gop.Frames[1:] {
			for _, ts := range fr.Tiles {
				search += ts.Work(kvazaarNsPerEval) - ts.Work(0)
				total += ts.Work(kvazaarNsPerEval)
			}
		}
		if share := search.Seconds() / total.Seconds(); share < 0.70 || share > 0.80 {
			t.Fatalf("%d tiles: modelled ME share %.3f outside Kvazaar's [0.70, 0.80]", tiles, share)
		}
	}
}

func TestTable1SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("table1 encodes 3 methods × tilings")
	}
	opt := Table1Options{Frames: 9, Width: 320, Height: 240, QP: 32, Video: smallVideo(9)}
	res, err := RunTable1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Proposed) != len(table1Tilings) || len(res.Hexagon) != len(table1Tilings) {
		t.Fatalf("row counts %d/%d", len(res.Proposed), len(res.Hexagon))
	}
	for i, row := range res.Proposed {
		if row.Speedup <= 0 || row.EvalSpeedup <= 0 {
			t.Fatalf("tiling %v: degenerate speedups %+v", table1Tilings[i], row)
		}
		// The paper's quality contract: fast ME loses little quality.
		if row.PSNRLoss > 1.0 {
			t.Fatalf("tiling %v: PSNR loss %.2f dB too high", table1Tilings[i], row.PSNRLoss)
		}
		if row.EvalSpeedup < 1 {
			t.Fatalf("tiling %v: proposed evaluated more points than TZ", table1Tilings[i])
		}
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Proposed") || !strings.Contains(sb.String(), "Hexagonal") {
		t.Fatal("render missing methods")
	}
}

func TestProjectedSpeedup(t *testing.T) {
	row := Table1Row{EvalSpeedup: 8}
	// At 75% ME share: 1/(0.25 + 0.75/8) ≈ 2.9.
	got := row.projectedSpeedup(0.75)
	if got < 2.8 || got > 3.0 {
		t.Fatalf("projected = %v", got)
	}
	if (Table1Row{}).projectedSpeedup(0.75) != 0 {
		t.Fatal("zero eval speedup should project 0")
	}
}

func TestFig3SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 encodes four GOPs")
	}
	opt := Fig3Options{Video: smallVideo(16)}
	res, err := RunFig3(opt)
	if err != nil {
		t.Fatal(err)
	}
	// The headline shape: proposed uses fewer cores and fewer fmax cores.
	if res.Proposed.CoresUsed >= res.Baseline.CoresUsed {
		t.Fatalf("proposed used %d cores, baseline %d", res.Proposed.CoresUsed, res.Baseline.CoresUsed)
	}
	if res.Proposed.CoresAtMax >= res.Baseline.CoresAtMax {
		t.Fatalf("proposed has %d fmax cores, baseline %d", res.Proposed.CoresAtMax, res.Baseline.CoresAtMax)
	}
	// Per-tile CPU diversity: the proposed tiles must spread much wider
	// than the baseline's capacity tiles.
	spread := func(s Fig3Side) float64 {
		if len(s.Tiles) == 0 {
			return 0
		}
		minT, maxT := s.Tiles[0].CPU, s.Tiles[0].CPU
		for _, tc := range s.Tiles {
			if tc.CPU < minT {
				minT = tc.CPU
			}
			if tc.CPU > maxT {
				maxT = tc.CPU
			}
		}
		if minT <= 0 {
			return 1e9
		}
		return float64(maxT) / float64(minT)
	}
	if spread(res.Proposed) <= spread(res.Baseline) {
		t.Fatalf("proposed tile-CPU spread %.1f not above baseline %.1f",
			spread(res.Proposed), spread(res.Baseline))
	}
	checkGolden(t, "fig3_small", res)
}

func TestFig4SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4 runs warm encodes for the whole corpus")
	}
	opt := Fig4Options{BaselineCoresPerUser: 2, Width: 320, Height: 240, FramesPerVideo: 16}
	res, err := RunFig4(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(fig4UserCounts) {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		if p.SavingsPct <= 0 {
			t.Fatalf("no savings at %d users: %+v", p.Users, p)
		}
	}
	// The paper's trend: savings grow with the user count.
	if res.Points[len(res.Points)-1].SavingsPct <= res.Points[0].SavingsPct {
		t.Fatalf("savings not increasing: first %.1f%%, last %.1f%%",
			res.Points[0].SavingsPct, res.Points[len(res.Points)-1].SavingsPct)
	}
	if res.AvgSavingsPct < 15 {
		t.Fatalf("average savings %.1f%% far below the paper's regime", res.AvgSavingsPct)
	}
	checkGolden(t, "fig4_small", res)
}

func TestTable2SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("table2 serves a user queue for several rounds")
	}
	opt := Table2Options{
		QueueLen:             24, // saturates the baseline (16-user capacity)
		FramesPerVideo:       32,
		BaselineCoresPerUser: 2,
		Width:                320,
		Height:               240,
	}
	res, err := RunTable2(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Proposed.UsersServed <= res.Baseline.UsersServed {
		t.Fatalf("proposed served %d, baseline %d — throughput advantage lost",
			res.Proposed.UsersServed, res.Baseline.UsersServed)
	}
	if res.Proposed.AvgPSNR < 38 {
		t.Fatalf("proposed avg PSNR %.1f below constraint regime", res.Proposed.AvgPSNR)
	}
	if res.Proposed.MinPSNR > res.Proposed.MaxPSNR {
		t.Fatal("min PSNR above max")
	}
	checkGolden(t, "table2_small", res)
}

func TestLUTConvergenceRun(t *testing.T) {
	if testing.Short() {
		t.Skip("lut run encodes several GOPs")
	}
	opt := DefaultLUTOptions()
	opt.Video = smallVideo(40)
	opt.GOPs = 5
	cross := smallVideo(16)
	cross.Motion = medgen.Pan
	cross.Seed = 9
	opt.CrossVideo = &cross
	res, err := RunLUT(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("%d points", len(res.Points))
	}
	// Convergence: the late error must not exceed the early error.
	early := res.Points[1].AbsError
	late := res.FinalError
	if late > early*2 {
		t.Fatalf("estimation error diverging: %v → %v", early, late)
	}
	if res.CrossVideoError <= 0 {
		t.Fatal("cross-video error not measured")
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestAblationRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation encodes five pipeline variants")
	}
	opt := AblationOptions{Video: smallVideo(24), GOPs: 2}
	res, err := RunAblation(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d variants", len(res.Rows))
	}
	byName := make(map[string]AblationRow)
	for _, row := range res.Rows {
		if row.CPUPerFrame <= 0 || row.PSNR <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
		byName[row.Variant] = row
	}
	full := byName["proposed (full)"]
	noME := byName["no fast ME (TZ everywhere)"]
	if noME.CPUPerFrame <= full.CPUPerFrame {
		t.Fatalf("TZ-everywhere (%v) not slower than full pipeline (%v)", noME.CPUPerFrame, full.CPUPerFrame)
	}
	checkGolden(t, "ablation_small", res)
}

func TestRunValidation(t *testing.T) {
	if _, err := RunTable1(Table1Options{}); err == nil {
		t.Fatal("accepted zero table1 options")
	}
	if _, err := RunTable2(Table2Options{}); err == nil {
		t.Fatal("accepted zero table2 options")
	}
	if _, err := RunLUT(LUTOptions{}); err == nil {
		t.Fatal("accepted zero LUT options")
	}
}
