package medgen

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/video"
)

func gen(t *testing.T, mutate func(*Config)) *Generator {
	t.Helper()
	cfg := Default()
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidate(t *testing.T) {
	good := Default()
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.Height = -2 },
		func(c *Config) { c.Width = 641 }, // odd
		func(c *Config) { c.FPS = 0 },
		func(c *Config) { c.Frames = 0 },
		func(c *Config) { c.Class = Class(99) },
	}
	for i, mutate := range cases {
		c := Default()
		mutate(&c)
		if err := c.validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := gen(t, nil).Frame(7)
	b := gen(t, nil).Frame(7)
	sad, err := video.SAD(a.Y, b.Y)
	if err != nil {
		t.Fatal(err)
	}
	if sad != 0 {
		t.Fatalf("same seed produced different frames (SAD %d)", sad)
	}
}

func TestFrameIndependentOfRenderOrder(t *testing.T) {
	// Frame n must not depend on whether earlier frames were rendered.
	g1 := gen(t, nil)
	direct := g1.Frame(5)
	g2 := gen(t, nil)
	for i := 0; i < 5; i++ {
		g2.Frame(i)
	}
	viaOrder := g2.Frame(5)
	if sad, _ := video.SAD(direct.Y, viaOrder.Y); sad != 0 {
		t.Fatal("frame content depends on render order")
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := gen(t, func(c *Config) { c.Seed = 1 }).Frame(0)
	b := gen(t, func(c *Config) { c.Seed = 2 }).Frame(0)
	sad, _ := video.SAD(a.Y, b.Y)
	if sad == 0 {
		t.Fatal("different seeds produced identical frames")
	}
}

func TestClassesDiffer(t *testing.T) {
	a := gen(t, func(c *Config) { c.Class = Brain }).Frame(0)
	b := gen(t, func(c *Config) { c.Class = Bone }).Frame(0)
	sad, _ := video.SAD(a.Y, b.Y)
	if sad == 0 {
		t.Fatal("different classes produced identical frames")
	}
}

func TestGeometryAndMetadata(t *testing.T) {
	g := gen(t, func(c *Config) { c.Frames = 5 })
	f := g.Frame(3)
	if f.Width() != 640 || f.Height() != 480 {
		t.Fatalf("frame %dx%d", f.Width(), f.Height())
	}
	if f.Number != 3 {
		t.Fatalf("number = %d", f.Number)
	}
	if math.Abs(f.PTS-3.0/24) > 1e-12 {
		t.Fatalf("pts = %v", f.PTS)
	}
}

func TestSequenceLengthAndValidity(t *testing.T) {
	g := gen(t, func(c *Config) { c.Frames = 6 })
	s := g.Sequence()
	if len(s.Frames) != 6 {
		t.Fatalf("%d frames", len(s.Frames))
	}
	for i, f := range s.Frames {
		if f.Width() != 640 || f.Height() != 480 {
			t.Fatalf("frame %d is %dx%d, want 640x480", i, f.Width(), f.Height())
		}
	}
	if s.FPS != 24 {
		t.Fatalf("fps = %v", s.FPS)
	}
}

func TestCenterBrighterThanBorders(t *testing.T) {
	// The defining property of bio-medical frames: information (intensity,
	// texture) concentrates in the center.
	for _, class := range []Class{Brain, Chest, Bone, SpinalCord, Ligament} {
		f := gen(t, func(c *Config) { c.Class = class }).Frame(0)
		center := f2plane(f, 240, 180, 160, 120)
		corner := f2plane(f, 0, 0, 80, 60)
		cm, _ := center.MeanStddev()
		bm, bs := corner.MeanStddev()
		if cm <= bm {
			t.Errorf("class %v: center mean %.1f not above corner mean %.1f", class, cm, bm)
		}
		if bs > 3 {
			t.Errorf("class %v: corner stddev %.2f too high for low-content border", class, bs)
		}
	}
}

func TestStillMotionOnlyNoise(t *testing.T) {
	g := gen(t, func(c *Config) { c.Motion = Still })
	a, b := g.Frame(0), g.Frame(5)
	mse := meanSquaredError(a.Y, b.Y)
	// Only sensor noise differs: MSE stays in the noise regime.
	if mse > 20 {
		t.Fatalf("still video MSE = %v across 5 frames, want noise-level", mse)
	}
}

func TestPanMovesContent(t *testing.T) {
	g := gen(t, func(c *Config) {
		c.Motion = Pan
		c.PanVX, c.PanVY = 4, 0
		c.NoiseSigma = -1 // disable noise for an exact shift check
	})
	a, b := g.Frame(0), g.Frame(1)
	// b shifted back by 4 px must match a (on the interior).
	inner := 100
	var diff int64
	for y := inner; y < 480-inner; y++ {
		for x := inner; x < 640-inner; x++ {
			d := int64(b.Y.At(x, y)) - int64(a.Y.At(x-4, y))
			diff += d * d
		}
	}
	n := float64((480 - 2*inner) * (640 - 2*inner))
	if mse := float64(diff) / n; mse > 1 {
		t.Fatalf("pan-compensated MSE = %v, want ≈0", mse)
	}
}

func TestRotateMovesRim(t *testing.T) {
	g := gen(t, func(c *Config) {
		c.Motion = Rotate
		c.RotateDegPerFrame = 2
		c.NoiseSigma = -1
	})
	a, b := g.Frame(0), g.Frame(6) // 12° apart
	// The rim of the anatomy must change; the rotation center must not.
	rim := func(f *video.Frame) *video.Plane { return f2plane(f, 320+120, 240, 60, 40) }
	mseRim := meanSquaredError(rim(a), rim(b))
	centerA := f2plane(a, 312, 232, 16, 16)
	centerB := f2plane(b, 312, 232, 16, 16)
	mseCenter := meanSquaredError(centerA, centerB)
	if mseRim < 10*mseCenter+1 {
		t.Fatalf("rotation: rim MSE %v not ≫ center MSE %v", mseRim, mseCenter)
	}
}

// f2plane is the luma window of f at (x, y), w×h, which the caller knows
// is in range.
func f2plane(f *video.Frame, x, y, w, h int) *video.Plane {
	p, err := f.Y.SubPlane(x, y, w, h)
	if err != nil {
		panic(err)
	}
	return p
}

// meanSquaredError is the mean squared sample difference of two planes of
// one size.
func meanSquaredError(a, b *video.Plane) float64 {
	var sum int64
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			d := int64(a.At(x, y)) - int64(b.At(x, y))
			sum += d * d
		}
	}
	return float64(sum) / float64(a.W*a.H)
}

func TestSweepAlternatesPhases(t *testing.T) {
	g := gen(t, func(c *Config) {
		c.Motion = Sweep
		c.Frames = 72
		c.NoiseSigma = -1
	})
	// Pose at the end of second 0 (rotation phase) has angle but no pan;
	// during second 1 the pan accumulates.
	p24 := g.poseAt(24)
	p48 := g.poseAt(48)
	if p24.theta == 0 {
		t.Fatal("no rotation accumulated during first second")
	}
	if p24.tx != 0 {
		t.Fatalf("pan accumulated during rotation phase: %v", p24.tx)
	}
	if p48.tx == 0 {
		t.Fatal("no pan accumulated during second phase")
	}
	if math.Abs(p48.theta-p24.theta) > 1e-9 {
		t.Fatal("rotation advanced during pan phase")
	}
}

func TestChromaNeutralAndSized(t *testing.T) {
	f := gen(t, nil).Frame(0)
	if f.Cb.W != 320 || f.Cb.H != 240 {
		t.Fatalf("chroma %dx%d", f.Cb.W, f.Cb.H)
	}
	if d := int(f.Cb.At(0, 0)) - 128; d < -2 || d > 2 {
		t.Fatalf("Cb = %d, want ≈128", f.Cb.At(0, 0))
	}
}

func TestNoiseDisabled(t *testing.T) {
	g := gen(t, func(c *Config) {
		c.Motion = Still
		c.NoiseSigma = -1
	})
	a, b := g.Frame(0), g.Frame(1)
	if sad, _ := video.SAD(a.Y, b.Y); sad != 0 {
		t.Fatal("still + no-noise frames differ")
	}
}

func TestTilingStabilityAcrossGOP(t *testing.T) {
	// Paper Fig. 1: a tiling computed at frame n stays valid ~24 frames.
	// Proxy: per-region mean intensity changes slowly under rotation.
	g := gen(t, nil)
	a, b := g.Frame(0), g.Frame(23)
	for _, r := range [][4]int{{0, 0, 160, 120}, {240, 180, 160, 120}, {480, 360, 160, 120}} {
		ma, _ := f2plane(a, r[0], r[1], r[2], r[3]).MeanStddev()
		mb, _ := f2plane(b, r[0], r[1], r[2], r[3]).MeanStddev()
		if math.Abs(ma-mb) > 0.15*math.Max(ma, 1) {
			t.Errorf("region %v mean drifted %.1f → %.1f across 24 frames", r, ma, mb)
		}
	}
}

func TestAllClassesAllMotionsRender(t *testing.T) {
	for class := Class(0); class < numClasses; class++ {
		for _, m := range []MotionKind{Still, Pan, Rotate, Sweep} {
			g := gen(t, func(c *Config) {
				c.Class = class
				c.Motion = m
				c.Width, c.Height = 128, 96 // keep the sweep fast
				c.Frames = 2
			})
			f := g.Frame(1)
			if f.Width() != 128 {
				t.Fatalf("class %v motion %v: bad frame", class, m)
			}
		}
	}
}

func TestSplitMixUniformity(t *testing.T) {
	// Property: float() stays in [0,1) and has a plausible mean.
	s := newSplitMix(42)
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := s.float()
		if v < 0 || v >= 1 {
			t.Fatalf("float out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Fatalf("mean = %v, want ≈0.5", mean)
	}
}

func TestGaussMoments(t *testing.T) {
	s := newSplitMix(7)
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := s.gauss()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("gauss mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("gauss variance = %v", variance)
	}
}

func TestStringMethods(t *testing.T) {
	if Brain.String() != "brain" || Bone.String() != "bone" {
		t.Fatal("class names")
	}
	if Class(42).String() == "" {
		t.Fatal("unknown class name empty")
	}
	if Rotate.String() != "rotate" || MotionKind(9).String() == "" {
		t.Fatal("motion names")
	}
}

func TestPoseProperty(t *testing.T) {
	// Pan pose is linear in frame number.
	f := func(n uint8) bool {
		cfg := Default()
		cfg.Motion = Pan
		cfg.PanVX, cfg.PanVY = 2, -1
		g, err := NewGenerator(cfg)
		if err != nil {
			return false
		}
		p := g.poseAt(int(n))
		return p.tx == 2*float64(n) && p.ty == -1*float64(n) && p.theta == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// samePixels reports whether two frames carry identical samples.
func samePixels(a, b *video.Frame) bool {
	for _, p := range [][2]*video.Plane{{a.Y, b.Y}, {a.Cb, b.Cb}, {a.Cr, b.Cr}} {
		if sad, err := video.SAD(p[0], p[1]); err != nil || sad != 0 {
			return false
		}
	}
	return a.Number == b.Number && a.PTS == b.PTS
}

// TestFrameRendersOnce: repeat and concurrent calls of Frame(n) return the
// one frame the generator rendered, and it equals a fresh render.
func TestFrameRendersOnce(t *testing.T) {
	small := func(c *Config) { c.Width, c.Height = 64, 48 }
	g := gen(t, small)
	const frames, callers = 4, 8
	got := make([][frames]*video.Frame, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range frames {
				got[i][n] = g.Frame(n)
			}
		}()
	}
	wg.Wait()
	fresh := gen(t, small)
	for n := range frames {
		want := g.Frame(n)
		for i := range got {
			if got[i][n] != want {
				t.Fatalf("frame %d: caller %d got a second copy", n, i)
			}
		}
		if !samePixels(want, fresh.render(n)) {
			t.Fatalf("frame %d differs from a fresh render", n)
		}
	}
}

// TestFramePastCapNotKept: once the kept frames reach maxKeptBytes, a new
// frame is rendered on every call, equals a fresh render and is not kept,
// while the frames already kept stay shared.
func TestFramePastCapNotKept(t *testing.T) {
	small := func(c *Config) { c.Width, c.Height = 64, 48 }
	g := gen(t, small)
	kept := g.Frame(0)
	// Stand-ins under unused keys fill the cap instead of 8 MiB of renders.
	for n := -1; len(g.kept) < maxKeptBytes/(64*48*3/2); n-- {
		g.kept[n] = kept
	}
	full := len(g.kept)
	a, b := g.Frame(1), g.Frame(1)
	if a == b || len(g.kept) != full {
		t.Fatal("a frame past the cap was kept")
	}
	if want := gen(t, small).Frame(1); !samePixels(a, want) || !samePixels(b, want) {
		t.Fatal("a frame past the cap differs from a fresh render")
	}
	if g.Frame(0) != kept {
		t.Fatal("a kept frame was dropped")
	}
}

// TestSourceAccessors: the generator describes its sequence as a frame
// source does.
func TestSourceAccessors(t *testing.T) {
	g := gen(t, func(c *Config) { c.Class, c.Frames, c.FPS = SpinalCord, 12, 30 })
	if g.Len() != 12 || g.FPS() != 30 || g.Class() != "spinal-cord" {
		t.Fatalf("Len %d, FPS %v, Class %q", g.Len(), g.FPS(), g.Class())
	}
}
