package tiling

import (
	"testing"
	"testing/quick"
)

// Contains reports whether (x, y) lies inside r.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X && x < r.X+r.W && y >= r.Y && y < r.Y+r.H
}

// Equal reports whether two grids describe the same partition (same frame
// geometry and same rectangles, irrespective of index order).
func Equal(a, b *Grid) bool {
	if a.FrameW != b.FrameW || a.FrameH != b.FrameH || len(a.Tiles) != len(b.Tiles) {
		return false
	}
	key := func(t Tile) [4]int { return [4]int{t.X, t.Y, t.W, t.H} }
	seen := make(map[[4]int]int, len(a.Tiles))
	for _, t := range a.Tiles {
		seen[key(t)]++
	}
	for _, t := range b.Tiles {
		if seen[key(t)] == 0 {
			return false
		}
		seen[key(t)]--
	}
	return true
}

func TestRectBasics(t *testing.T) {
	r := Rect{X: 10, Y: 20, W: 30, H: 40}
	if r.Area() != 1200 {
		t.Fatalf("area = %d", r.Area())
	}
	if r.Empty() {
		t.Fatal("non-empty rect reported empty")
	}
	if (Rect{W: 0, H: 5}).Empty() == false {
		t.Fatal("zero-width rect not empty")
	}
	if !r.Contains(10, 20) || !r.Contains(39, 59) {
		t.Fatal("corners not contained")
	}
	if r.Contains(40, 20) || r.Contains(10, 60) {
		t.Fatal("exclusive bounds violated")
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{10, 0, 5, 5}, false}, // touching edge: no shared sample
		{Rect{9, 9, 5, 5}, true},
		{Rect{-5, -5, 6, 6}, true},
		{Rect{0, 10, 10, 1}, false},
		{Rect{3, 3, 2, 2}, true}, // contained
	}
	for _, c := range cases {
		if got := a.intersects(c.b); got != c.want {
			t.Errorf("%v ∩ %v = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.intersects(a); got != c.want {
			t.Errorf("intersection not symmetric for %v", c.b)
		}
	}
}

func TestUniformExactPartition(t *testing.T) {
	// The paper's Table I sweep set.
	splits := [][2]int{{1, 1}, {2, 1}, {2, 2}, {2, 3}, {2, 4}, {5, 2}, {4, 3}, {5, 3}, {5, 4}, {4, 6}, {5, 6}}
	for _, s := range splits {
		g, err := Uniform(640, 480, s[0], s[1])
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if g.NumTiles() != s[0]*s[1] {
			t.Fatalf("%v: %d tiles", s, g.NumTiles())
		}
	}
}

func TestUniformHandlesRemainders(t *testing.T) {
	g, err := Uniform(10, 7, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Widths must be 4,3,3 and heights 4,3 in some arrangement; all tiles
	// within one sample of each other per dimension.
	for _, tl := range g.Tiles {
		if tl.W < 3 || tl.W > 4 || tl.H < 3 || tl.H > 4 {
			t.Fatalf("tile %v outside expected size range", tl.Rect)
		}
	}
}

func TestUniformErrors(t *testing.T) {
	if _, err := Uniform(0, 480, 1, 1); err == nil {
		t.Fatal("accepted zero width")
	}
	if _, err := Uniform(640, 480, 0, 1); err == nil {
		t.Fatal("accepted zero split")
	}
	if _, err := Uniform(4, 4, 5, 1); err == nil {
		t.Fatal("accepted more columns than samples")
	}
}

func TestUniformPropertyPartition(t *testing.T) {
	f := func(w16, h16, nx4, ny4 uint8) bool {
		w, h := int(w16)%512+16, int(h16)%512+16
		nx, ny := int(nx4)%6+1, int(ny4)%6+1
		g, err := Uniform(w, h, nx, ny)
		if err != nil {
			return false
		}
		return g.Validate() == nil && g.NumTiles() == nx*ny
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	g := &Grid{FrameW: 10, FrameH: 10, Tiles: []Tile{
		{Rect: Rect{0, 0, 6, 10}},
		{Rect: Rect{5, 0, 5, 10}},
	}}
	if err := g.Validate(); err == nil {
		t.Fatal("overlapping grid validated")
	}
}

func TestValidateCatchesGap(t *testing.T) {
	g := &Grid{FrameW: 10, FrameH: 10, Tiles: []Tile{
		{Rect: Rect{0, 0, 5, 10}},
		{Rect: Rect{5, 0, 4, 10}},
	}}
	if err := g.Validate(); err == nil {
		t.Fatal("gapped grid validated")
	}
}

func TestValidateCatchesOutOfBounds(t *testing.T) {
	g := &Grid{FrameW: 10, FrameH: 10, Tiles: []Tile{{Rect: Rect{0, 0, 11, 10}}}}
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-bounds grid validated")
	}
}

func TestEqualIgnoresOrder(t *testing.T) {
	a := MustUniform(100, 100, 2, 2)
	b := &Grid{FrameW: 100, FrameH: 100}
	for i := len(a.Tiles) - 1; i >= 0; i-- {
		b.Tiles = append(b.Tiles, a.Tiles[i])
	}
	if !Equal(a, b) {
		t.Fatal("reordered identical grids not Equal")
	}
	c := MustUniform(100, 100, 4, 1)
	if Equal(a, c) {
		t.Fatal("different grids reported Equal")
	}
}

// stubProbe drives the re-tiler with a content rectangle: anything fully
// outside content is low, anything overlapping it is not.
type stubProbe struct {
	content Rect
	texture int
}

func (s stubProbe) LowContent(r Rect) bool { return !r.intersects(s.content) }
func (s stubProbe) CenterTexture(Rect) int { return s.texture }

func TestRetileProducesValidPartition(t *testing.T) {
	cfg := DefaultRetileConfig()
	probe := stubProbe{content: Rect{200, 150, 240, 180}, texture: 2}
	g, err := Retile(640, 480, cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumTiles() > cfg.MaxTiles {
		t.Fatalf("%d tiles exceeds max %d", g.NumTiles(), cfg.MaxTiles)
	}
}

func TestRetileCenterTileCount(t *testing.T) {
	cfg := DefaultRetileConfig()
	probe := stubProbe{content: Rect{200, 150, 240, 180}, texture: 2}
	g, err := Retile(640, 480, cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	var center int
	for _, tl := range g.Tiles {
		if tl.Region == regionCenter {
			center++
		}
	}
	if center < cfg.MinCenterTiles {
		t.Fatalf("%d center tiles, want ≥ %d", center, cfg.MinCenterTiles)
	}
}

func TestRetileLowTextureFewerCenterTiles(t *testing.T) {
	cfg := DefaultRetileConfig()
	probe := stubProbe{content: Rect{200, 150, 240, 180}}
	counts := make(map[int]int)
	for tex := 0; tex <= 2; tex++ {
		probe.texture = tex
		g, err := Retile(640, 480, cfg, probe)
		if err != nil {
			t.Fatal(err)
		}
		for _, tl := range g.Tiles {
			if tl.Region == regionCenter {
				counts[tex]++
			}
		}
	}
	if counts[0] > counts[2] {
		t.Fatalf("low texture produced more center tiles (%d) than high (%d)", counts[0], counts[2])
	}
}

func TestRetileGrowsAwayFromContent(t *testing.T) {
	cfg := DefaultRetileConfig()
	// Content confined to the right half: left margin should grow wider
	// than the right margin.
	probe := stubProbe{content: Rect{400, 100, 200, 280}, texture: 1}
	g, err := Retile(640, 480, cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	var leftW, rightW int
	for _, tl := range g.Tiles {
		if tl.Region != regionCorner {
			continue
		}
		if tl.X == 0 && tl.Y == 0 {
			leftW = tl.W
		}
		if tl.X+tl.W == 640 && tl.Y == 0 {
			rightW = tl.W
		}
	}
	if leftW <= rightW {
		t.Fatalf("left corner width %d not larger than right %d despite right-side content", leftW, rightW)
	}
}

func TestRetileAllLowContentStillValid(t *testing.T) {
	cfg := DefaultRetileConfig()
	// Content nowhere: margins grow to their caps; partition must hold.
	probe := stubProbe{content: Rect{-10, -10, 1, 1}, texture: 0}
	g, err := Retile(640, 480, cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRetileAllHighContentStillValid(t *testing.T) {
	cfg := DefaultRetileConfig()
	probe := stubProbe{content: Rect{0, 0, 640, 480}, texture: 2}
	g, err := Retile(640, 480, cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Margins should be at the minimum: corner tiles at min size.
	for _, tl := range g.Tiles {
		if tl.Region == regionCorner && (tl.W > cfg.MinTileW || tl.H > cfg.MinTileH) {
			t.Fatalf("corner tile %v grew despite high content everywhere", tl.Rect)
		}
	}
}

func TestRetileRespectsMinTileSize(t *testing.T) {
	cfg := DefaultRetileConfig()
	probe := stubProbe{content: Rect{250, 180, 140, 120}, texture: 2}
	g, err := Retile(640, 480, cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range g.Tiles {
		if tl.Region == regionCenter && (tl.W < cfg.MinTileW || tl.H < cfg.MinTileH) {
			t.Fatalf("center tile %v below minimum %dx%d", tl.Rect, cfg.MinTileW, cfg.MinTileH)
		}
	}
}

func TestRetileConfigValidation(t *testing.T) {
	cfg := DefaultRetileConfig()
	cfg.MinTileW = 0
	if _, err := Retile(640, 480, cfg, stubProbe{}); err == nil {
		t.Fatal("accepted zero min tile width")
	}
	cfg = DefaultRetileConfig()
	cfg.MinTileW = 300 // 3×300 > 640
	if _, err := Retile(640, 480, cfg, stubProbe{}); err == nil {
		t.Fatal("accepted oversized min tile")
	}
	cfg = DefaultRetileConfig()
	cfg.MaxTiles = 5
	if _, err := Retile(640, 480, cfg, stubProbe{}); err == nil {
		t.Fatal("accepted MaxTiles too small for structure")
	}
	cfg = DefaultRetileConfig()
	if _, err := Retile(640, 480, cfg, nil); err == nil {
		t.Fatal("accepted nil probe")
	}
}

func TestRetilePropertyAlwaysPartition(t *testing.T) {
	f := func(cx, cy, cw, ch uint16, tex uint8) bool {
		probe := stubProbe{
			content: Rect{int(cx % 600), int(cy % 440), int(cw%200) + 1, int(ch%200) + 1},
			texture: int(tex % 3),
		}
		g, err := Retile(640, 480, DefaultRetileConfig(), probe)
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionAndStringMethods(t *testing.T) {
	if regionCenter.String() != "center" || regionCorner.String() != "corner" || regionBorder.String() != "border" {
		t.Fatal("region names wrong")
	}
	if Region(99).String() == "" {
		t.Fatal("unknown region has empty name")
	}
	if (Rect{1, 2, 3, 4}).String() != "3x4@(1,2)" {
		t.Fatalf("rect string = %s", Rect{1, 2, 3, 4}.String())
	}
}
