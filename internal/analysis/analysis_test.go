package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/medgen"
	"repro/internal/tiling"
	"repro/internal/video"
)

func mustEval(t *testing.T, cur, prev *video.Plane) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(DefaultConfig(), cur, prev)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCVConstantPlaneIsZero(t *testing.T) {
	p := video.NewPlane(32, 32)
	p.Fill(100)
	cv, err := Config{}.cv(p, tiling.Rect{X: 0, Y: 0, W: 32, H: 32})
	if err != nil {
		t.Fatal(err)
	}
	if cv != 0 {
		t.Fatalf("CV constant = %v, want 0", cv)
	}
}

func TestCVAllBlackIsZero(t *testing.T) {
	p := video.NewPlane(8, 8)
	cv, err := Config{}.cv(p, tiling.Rect{W: 8, H: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cv != 0 {
		t.Fatalf("CV black = %v, want 0", cv)
	}
}

func TestCVKnownValue(t *testing.T) {
	// Two values 10 and 20: mean 15, stddev 5 → CV = 1/3.
	p := video.NewPlane(2, 1)
	p.Set(0, 0, 10)
	p.Set(1, 0, 20)
	cv, err := Config{}.cv(p, tiling.Rect{W: 2, H: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cv-1.0/3) > 1e-9 {
		t.Fatalf("CV = %v, want 1/3", cv)
	}
}

func TestConfigCVAppliesMeanFloor(t *testing.T) {
	// Dark noisy region: raw CV explodes, floored CV stays small.
	p := video.NewPlane(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			p.Set(x, y, uint8(4+(x+y)%4)) // mean ≈ 5.5, stddev ≈ 1.1
		}
	}
	r := tiling.Rect{W: 16, H: 16}
	raw, err := Config{}.cv(p, r)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	floored, err := cfg.cv(p, r)
	if err != nil {
		t.Fatal(err)
	}
	if floored >= raw {
		t.Fatalf("floored CV %v not below raw %v", floored, raw)
	}
	if cfg.classifyTexture(floored) != TextureLow {
		t.Fatalf("dark region classified %v, want low", cfg.classifyTexture(floored))
	}
}

func TestClassifyTextureThresholds(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.classifyTexture(cfg.TextureLowTh); got != TextureLow {
		t.Fatalf("at low threshold: %v (boundary is inclusive per Eq. 1)", got)
	}
	if got := cfg.classifyTexture(cfg.TextureLowTh + 1e-9); got != TextureMedium {
		t.Fatalf("just above low threshold: %v", got)
	}
	if got := cfg.classifyTexture(cfg.TextureHighTh); got != TextureMedium {
		t.Fatalf("at high threshold: %v", got)
	}
	if got := cfg.classifyTexture(cfg.TextureHighTh + 1e-9); got != TextureHigh {
		t.Fatalf("just above high threshold: %v", got)
	}
}

func TestMotionScoreStaticIsZero(t *testing.T) {
	p := video.NewPlane(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			p.Set(x, y, uint8(x*3+y*5))
		}
	}
	cfg := DefaultConfig()
	m, err := cfg.motionScore(p, p.Clone(), tiling.Rect{W: 64, H: 64})
	if err != nil {
		t.Fatal(err)
	}
	if m != 0 {
		t.Fatalf("static motion score = %d, want 0", m)
	}
}

func TestMotionScoreWeights(t *testing.T) {
	cfg := DefaultConfig()
	mk := func() (*video.Plane, *video.Plane) {
		cur, prev := video.NewPlane(33, 33), video.NewPlane(33, 33)
		cur.Fill(100)
		prev.Fill(100)
		return cur, prev
	}
	r := tiling.Rect{W: 33, H: 33}

	// One corner differing → α = 1. (The constant plane's max point is
	// position (0,0) by scan order — the same corner — so γ also fires;
	// use a distinct max point to isolate the corner.)
	cur, prev := mk()
	cur.Set(5, 5, 200) // max point at (5,5), unchanged? No: prev has 100.
	prev.Set(5, 5, 200)
	cur.Set(0, 0, 120) // corner differs
	m, err := cfg.motionScore(cur, prev, r)
	if err != nil {
		t.Fatal(err)
	}
	if m != cfg.Alpha {
		t.Fatalf("corner-only score = %d, want α = %d", m, cfg.Alpha)
	}

	// Center differing → β = 3 (motion classifies high on its own).
	cur, prev = mk()
	cur.Set(5, 5, 200)
	prev.Set(5, 5, 200)
	cur.Set(16, 16, 250) // center pixel (33/2 = 16)... also becomes max!
	m, err = cfg.motionScore(cur, prev, r)
	if err != nil {
		t.Fatal(err)
	}
	// 250 > 200, so the max point moved to the center too: β + γ.
	if m != cfg.Beta+cfg.Gamma {
		t.Fatalf("center+max score = %d, want β+γ = %d", m, cfg.Beta+cfg.Gamma)
	}
	if cfg.classifyMotion(m) != MotionHigh {
		t.Fatal("center+max change not classified high motion")
	}
}

func TestMotionScoreTolerance(t *testing.T) {
	cfg := DefaultConfig()
	cur, prev := video.NewPlane(16, 16), video.NewPlane(16, 16)
	cur.Fill(100)
	prev.Fill(100)
	// A change within tolerance is "equal".
	cur.Set(0, 0, uint8(100+cfg.PixelTolerance))
	m, err := cfg.motionScore(cur, prev, tiling.Rect{W: 16, H: 16})
	if err != nil {
		t.Fatal(err)
	}
	if m != 0 {
		t.Fatalf("within-tolerance score = %d, want 0", m)
	}
}

func TestMotionScoreErrors(t *testing.T) {
	cfg := DefaultConfig()
	a, b := video.NewPlane(8, 8), video.NewPlane(16, 8)
	if _, err := cfg.motionScore(a, b, tiling.Rect{W: 8, H: 8}); err == nil {
		t.Fatal("accepted mismatched planes")
	}
	c := video.NewPlane(8, 8)
	if _, err := cfg.motionScore(a, c, tiling.Rect{X: 4, Y: 0, W: 8, H: 8}); err == nil {
		t.Fatal("accepted out-of-bounds rect")
	}
}

func TestEvaluatorNilPrevIsHighMotion(t *testing.T) {
	p := video.NewPlane(64, 64)
	e := mustEval(t, p, nil)
	tc, err := e.evaluate(tiling.Tile{Rect: tiling.Rect{W: 64, H: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if tc.Motion != MotionHigh {
		t.Fatal("first frame should classify high motion")
	}
}

func TestEvaluatorValidation(t *testing.T) {
	p := video.NewPlane(8, 8)
	if _, err := NewEvaluator(DefaultConfig(), nil, nil); err == nil {
		t.Fatal("accepted nil current plane")
	}
	q := video.NewPlane(16, 8)
	if _, err := NewEvaluator(DefaultConfig(), p, q); err == nil {
		t.Fatal("accepted mismatched prev plane")
	}
	bad := DefaultConfig()
	bad.MotionTh = 0
	if _, err := NewEvaluator(bad, p, nil); err == nil {
		t.Fatal("accepted invalid config")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.TextureLowTh = -0.1 },
		func(c *Config) { c.TextureHighTh = c.TextureLowTh - 0.01 },
		func(c *Config) { c.Alpha = -1 },
		func(c *Config) { c.MotionTh = 0 },
		func(c *Config) { c.PixelTolerance = -1 },
		func(c *Config) { c.MeanFloor = -1 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

// Corpus tests: the classifier must reproduce the paper's observations on
// bio-medical content — low-content borders, high-content center.

func corpusFrames(t *testing.T, class medgen.Class, motion medgen.MotionKind) (*video.Plane, *video.Plane) {
	t.Helper()
	cfg := medgen.Default()
	cfg.Class = class
	cfg.Motion = motion
	cfg.Frames = 2
	g, err := medgen.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g.Frame(1).Y, g.Frame(0).Y
}

func TestCornersAreLowContentOnCorpus(t *testing.T) {
	for _, class := range []medgen.Class{medgen.Brain, medgen.Chest, medgen.Bone} {
		cur, prev := corpusFrames(t, class, medgen.Rotate)
		e := mustEval(t, cur, prev)
		for _, r := range []tiling.Rect{
			{X: 0, Y: 0, W: 64, H: 64},
			{X: 576, Y: 0, W: 64, H: 64},
			{X: 0, Y: 416, W: 64, H: 64},
			{X: 576, Y: 416, W: 64, H: 64},
		} {
			if !e.LowContent(r) {
				tc, _ := e.evaluate(tiling.Tile{Rect: r})
				t.Errorf("class %v: corner %v not low content (CV %.3f, tex %v, M %d)",
					class, r, tc.CV, tc.Texture, tc.Score)
			}
		}
	}
}

func TestCenterIsNotLowOnCorpus(t *testing.T) {
	for _, class := range []medgen.Class{medgen.Brain, medgen.Chest, medgen.Bone} {
		cur, prev := corpusFrames(t, class, medgen.Rotate)
		e := mustEval(t, cur, prev)
		center := tiling.Rect{X: 192, Y: 144, W: 256, H: 192}
		tc, err := e.evaluate(tiling.Tile{Rect: center})
		if err != nil {
			t.Fatal(err)
		}
		if tc.Texture == TextureLow {
			t.Errorf("class %v: center texture low (CV %.3f)", class, tc.CV)
		}
		if e.CenterTexture(center) == 0 {
			t.Errorf("class %v: CenterTexture reports 0", class)
		}
	}
}

func TestStillVideoClassifiesLowMotion(t *testing.T) {
	cur, prev := corpusFrames(t, medgen.Brain, medgen.Still)
	e := mustEval(t, cur, prev)
	grid := tiling.MustUniform(640, 480, 4, 4)
	tcs, err := e.EvaluateGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	high := 0
	for _, tc := range tcs {
		if tc.Motion == MotionHigh {
			high++
		}
	}
	if high > len(tcs)/4 {
		t.Fatalf("%d/%d tiles classified high motion on a still video", high, len(tcs))
	}
}

func TestRotatingVideoHasHighMotionCenter(t *testing.T) {
	cur, prev := corpusFrames(t, medgen.Brain, medgen.Rotate)
	e := mustEval(t, cur, prev)
	// Ring tiles around the center (the rotating anatomy's active area).
	high := 0
	probes := []tiling.Rect{
		{X: 160, Y: 120, W: 160, H: 120},
		{X: 320, Y: 120, W: 160, H: 120},
		{X: 160, Y: 240, W: 160, H: 120},
		{X: 320, Y: 240, W: 160, H: 120},
	}
	for _, r := range probes {
		tc, err := e.evaluate(tiling.Tile{Rect: r})
		if err != nil {
			t.Fatal(err)
		}
		if tc.Motion == MotionHigh {
			high++
		}
	}
	if high < 2 {
		t.Fatalf("only %d/%d central tiles high motion on rotating video", high, len(probes))
	}
}

func TestEvaluateGridMatchesEvaluate(t *testing.T) {
	cur, prev := corpusFrames(t, medgen.Chest, medgen.Pan)
	e := mustEval(t, cur, prev)
	grid := tiling.MustUniform(640, 480, 3, 3)
	tcs, err := e.EvaluateGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(tcs) != 9 {
		t.Fatalf("%d contents for 9 tiles", len(tcs))
	}
	for i, tc := range tcs {
		single, err := e.evaluate(grid.Tiles[i])
		if err != nil {
			t.Fatal(err)
		}
		if single != tc {
			t.Fatalf("tile %d: grid result %+v != single %+v", i, tc, single)
		}
	}
}

func TestLowContentPropertyNeverErrsOnValidRects(t *testing.T) {
	cur, prev := corpusFrames(t, medgen.Brain, medgen.Rotate)
	e := mustEval(t, cur, prev)
	f := func(x, y, w, h uint16) bool {
		r := tiling.Rect{
			X: int(x) % 600, Y: int(y) % 440,
			W: int(w)%40 + 1, H: int(h)%40 + 1,
		}
		// LowContent must never panic and must be deterministic.
		return e.LowContent(r) == e.LowContent(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStringMethods(t *testing.T) {
	if TextureLow.String() != "low" || TextureMedium.String() != "medium" || TextureHigh.String() != "high" {
		t.Fatal("texture names")
	}
	if MotionLow.String() != "low" || MotionHigh.String() != "high" {
		t.Fatal("motion names")
	}
	if TextureClass(9).String() == "" || MotionClass(9).String() == "" {
		t.Fatal("unknown class names empty")
	}
}
