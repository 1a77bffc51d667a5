// Package analysis implements the paper's fast per-tile content evaluation
// (Sec. III-A): texture classification from the coefficient of variation of
// luma samples (Eq. 1) and a six-point pixel-comparison motion metric
// (Eqs. 2–3). These measures must be cheap — they run for every candidate
// tile of every analyzed frame — so both are single-pass over the tile.
package analysis

import (
	"fmt"

	"repro/internal/tiling"
	"repro/internal/video"
)

// TextureClass is the three-level texture classification of Eq. 1.
type TextureClass int

// Texture classes in increasing diversity of luma.
const (
	TextureLow TextureClass = iota
	TextureMedium
	TextureHigh
)

// String returns the class name.
func (t TextureClass) String() string {
	switch t {
	case TextureLow:
		return "low"
	case TextureMedium:
		return "medium"
	case TextureHigh:
		return "high"
	default:
		return fmt.Sprintf("TextureClass(%d)", int(t))
	}
}

// MotionClass is the two-level motion classification of Eq. 3. The paper
// notes two levels suffice for all real-life bio-medical case studies.
type MotionClass int

// Motion classes.
const (
	MotionLow MotionClass = iota
	MotionHigh
)

// String returns the class name.
func (m MotionClass) String() string {
	switch m {
	case MotionLow:
		return "low"
	case MotionHigh:
		return "high"
	default:
		return fmt.Sprintf("MotionClass(%d)", int(m))
	}
}

// Config holds the classifier thresholds and weights. The zero value is not
// meaningful; use DefaultConfig.
type Config struct {
	// TextureLowTh and TextureHighTh are T_th,l and T_th,h of Eq. 1:
	// CV ≤ low → low texture; CV > high → high texture.
	TextureLowTh, TextureHighTh float64
	// Alpha, Beta, Gamma weight the corner, center and maximum-point
	// comparisons in Eq. 2. The paper selects 1, 3, 3: medical images
	// require larger coefficients for the center and the maximum point.
	Alpha, Beta, Gamma int
	// MotionTh is M_th of Eq. 3 (paper: 3).
	MotionTh int
	// PixelTolerance widens the pixel-equality test of Eq. 2: samples are
	// "equal" when |a−b| ≤ tolerance. The paper compares raw clinical
	// pixels; videos with sensor noise need a tolerance or every probe
	// would always report motion. 4 sample levels absorbs ~2.3 counts of
	// noise sigma while keeping real structural motion detectable.
	PixelTolerance int
	// MeanFloor stabilizes the coefficient of variation on dark regions:
	// CV = stddev / max(mean, MeanFloor). The raw ratio is scale
	// invariant, so a near-black noisy border would read as highly
	// textured even though it carries no information; clamping the
	// denominator restores the intended "texture = luma diversity that
	// costs encoding effort" semantics. 0 disables the floor.
	MeanFloor float64
}

// DefaultConfig returns the paper's parameters (α,β,γ = 1,3,3; M_th = 3)
// with thresholds calibrated on the synthetic corpus.
func DefaultConfig() Config {
	return Config{
		TextureLowTh:   0.15,
		TextureHighTh:  0.35,
		Alpha:          1,
		Beta:           3,
		Gamma:          3,
		MotionTh:       3,
		PixelTolerance: 4,
		MeanFloor:      32,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.TextureLowTh < 0 || c.TextureHighTh < c.TextureLowTh {
		return fmt.Errorf("analysis: invalid texture thresholds low=%v high=%v", c.TextureLowTh, c.TextureHighTh)
	}
	if c.Alpha < 0 || c.Beta < 0 || c.Gamma < 0 {
		return fmt.Errorf("analysis: negative weight α=%d β=%d γ=%d", c.Alpha, c.Beta, c.Gamma)
	}
	if c.MotionTh <= 0 {
		return fmt.Errorf("analysis: non-positive motion threshold %d", c.MotionTh)
	}
	if c.PixelTolerance < 0 {
		return fmt.Errorf("analysis: negative pixel tolerance %d", c.PixelTolerance)
	}
	if c.MeanFloor < 0 {
		return fmt.Errorf("analysis: negative mean floor %v", c.MeanFloor)
	}
	return nil
}

// cv returns the floor-stabilized coefficient of variation (stddev/mean) of
// the luma samples inside r (see Config.MeanFloor). A zero-mean (all black)
// region under a zero floor returns 0: it carries no texture.
func (c Config) cv(p *video.Plane, r tiling.Rect) (float64, error) {
	sp, err := p.SubPlane(r.X, r.Y, r.W, r.H)
	if err != nil {
		return 0, err
	}
	mean, stddev := sp.MeanStddev()
	if mean < c.MeanFloor {
		mean = c.MeanFloor
	}
	if mean == 0 {
		return 0, nil
	}
	return stddev / mean, nil
}

// classifyTexture applies Eq. 1 to the coefficient of variation.
func (c Config) classifyTexture(cv float64) TextureClass {
	switch {
	case cv <= c.TextureLowTh:
		return TextureLow
	case cv <= c.TextureHighTh:
		return TextureMedium
	default:
		return TextureHigh
	}
}

// motionScore computes M of Eq. 2 for rectangle r between the current and
// previous frames: a weighted count of differing probe pixels at the four
// corners (weight α each), the center (β) and the maximum-luma point (γ).
func (c Config) motionScore(cur, prev *video.Plane, r tiling.Rect) (int, error) {
	if cur.W != prev.W || cur.H != prev.H {
		return 0, fmt.Errorf("analysis: frame size mismatch %dx%d vs %dx%d: %w",
			cur.W, cur.H, prev.W, prev.H, video.ErrSizeMismatch)
	}
	if r.X < 0 || r.Y < 0 || r.X+r.W > cur.W || r.Y+r.H > cur.H || r.Empty() {
		return 0, fmt.Errorf("analysis: rect %s outside plane %dx%d", r, cur.W, cur.H)
	}
	differs := func(x, y int) bool {
		d := int(cur.At(x, y)) - int(prev.At(x, y))
		if d < 0 {
			d = -d
		}
		return d > c.PixelTolerance
	}
	m := 0
	// Four corners, weight α each.
	corners := [4][2]int{
		{r.X, r.Y},
		{r.X + r.W - 1, r.Y},
		{r.X, r.Y + r.H - 1},
		{r.X + r.W - 1, r.Y + r.H - 1},
	}
	for _, xy := range corners {
		if differs(xy[0], xy[1]) {
			m += c.Alpha
		}
	}
	// Center, weight β.
	if differs(r.X+r.W/2, r.Y+r.H/2) {
		m += c.Beta
	}
	// Maximum-luma point of the current tile, weight γ.
	sub, err := cur.SubPlane(r.X, r.Y, r.W, r.H)
	if err != nil {
		return 0, err
	}
	_, mx, my := sub.Max()
	if differs(r.X+mx, r.Y+my) {
		m += c.Gamma
	}
	return m, nil
}

// classifyMotion applies Eq. 3 to the motion score.
func (c Config) classifyMotion(score int) MotionClass {
	if score >= c.MotionTh {
		return MotionHigh
	}
	return MotionLow
}

// TileContent is the full content descriptor of one tile.
type TileContent struct {
	Tile    tiling.Tile
	CV      float64
	Texture TextureClass
	Score   int
	Motion  MotionClass
}

// Evaluator classifies tiles of a current frame against a previous frame.
// A nil previous frame (sequence start) classifies all motion as high,
// which is the conservative choice: the first frame of a video is encoded
// with the full-accuracy search anyway.
type Evaluator struct {
	cfg  Config
	cur  *video.Plane
	prev *video.Plane
}

// NewEvaluator builds an evaluator over the current (and optionally
// previous) luma planes.
func NewEvaluator(cfg Config, cur, prev *video.Plane) (*Evaluator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cur == nil {
		return nil, fmt.Errorf("analysis: nil current plane")
	}
	if prev != nil && (prev.W != cur.W || prev.H != cur.H) {
		return nil, fmt.Errorf("analysis: prev %dx%d vs cur %dx%d: %w", prev.W, prev.H, cur.W, cur.H, video.ErrSizeMismatch)
	}
	return &Evaluator{cfg: cfg, cur: cur, prev: prev}, nil
}

// evaluate classifies a single tile.
func (e *Evaluator) evaluate(t tiling.Tile) (TileContent, error) {
	cv, err := e.cfg.cv(e.cur, t.Rect)
	if err != nil {
		return TileContent{}, err
	}
	tc := TileContent{Tile: t, CV: cv, Texture: e.cfg.classifyTexture(cv)}
	if e.prev == nil {
		tc.Score = e.cfg.MotionTh
		tc.Motion = MotionHigh
		return tc, nil
	}
	score, err := e.cfg.motionScore(e.cur, e.prev, t.Rect)
	if err != nil {
		return TileContent{}, err
	}
	tc.Score = score
	tc.Motion = e.cfg.classifyMotion(score)
	return tc, nil
}

// EvaluateGrid classifies every tile of a grid.
func (e *Evaluator) EvaluateGrid(g *tiling.Grid) ([]TileContent, error) {
	out := make([]TileContent, 0, len(g.Tiles))
	for _, t := range g.Tiles {
		tc, err := e.evaluate(t)
		if err != nil {
			return nil, err
		}
		out = append(out, tc)
	}
	return out, nil
}

// LowContent implements tiling.ContentProbe: a rectangle is low content
// when its texture and motion are both classified low. (Paper Sec. III-B:
// corner/border growth continues "until the texture or the motion is not
// low anymore".)
func (e *Evaluator) LowContent(r tiling.Rect) bool {
	tc, err := e.evaluate(tiling.Tile{Rect: r})
	if err != nil {
		return false
	}
	return tc.Texture == TextureLow && tc.Motion == MotionLow
}

// CenterTexture implements tiling.ContentProbe, mapping the texture class
// of the center region to the re-tiler's 0/1/2 density scale. Motion is not
// considered: the paper observes center motion is consistent and uses only
// texture for the center split.
func (e *Evaluator) CenterTexture(r tiling.Rect) int {
	cv, err := e.cfg.cv(e.cur, r)
	if err != nil {
		return 2 // unknown: assume dense content
	}
	return int(e.cfg.classifyTexture(cv))
}

var _ tiling.ContentProbe = (*Evaluator)(nil)
