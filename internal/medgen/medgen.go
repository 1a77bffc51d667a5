// Package medgen generates synthetic bio-medical video sequences that stand
// in for the anonymized clinical MRI/CT/ultrasound videos used in the paper
// (which are not publicly available). The generator reproduces the
// statistical properties the paper's method exploits:
//
//   - diagnostic information concentrated in the center of the frame, with
//     low-texture, near-black borders and corners;
//   - consistent global motion: the whole anatomy rotates about an axis or
//     pans in a single direction, as produced by a specialist rotating the
//     study to observe an area of interest (Fig. 1 of the paper);
//   - tiling stability: the spatial texture layout changes slowly, so a tile
//     structure computed for one frame remains valid for the next ~24 frames;
//   - body-part classability: videos fall into a small set of classes (brain,
//     chest, bone, ...) with class-characteristic texture, enabling workload
//     LUT sharing across videos of one class.
//
// All output is deterministic for a given Config (including Seed).
package medgen

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/video"
)

// Class identifies the body part under study. Workload look-up tables may be
// shared between videos of the same class (paper Sec. III-D1).
type Class int

// Body-part classes, mirroring the paper's examples ("bones, lung and chest,
// brain, spinal cord, ligament and tendon, etc").
const (
	Brain Class = iota
	Chest
	Bone
	SpinalCord
	Ligament
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Brain:
		return "brain"
	case Chest:
		return "chest"
	case Bone:
		return "bone"
	case SpinalCord:
		return "spinal-cord"
	case Ligament:
		return "ligament"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// NumClasses is the number of distinct body-part classes.
const NumClasses = int(numClasses)

// MotionKind selects the camera/anatomy motion script of a sequence.
type MotionKind int

const (
	// Still produces no global motion (only sensor noise varies).
	Still MotionKind = iota
	// Pan translates the anatomy with a constant velocity.
	Pan
	// Rotate spins the anatomy about the frame center at a constant rate,
	// the dominant motion in diagnostic review (rotating along an axis).
	Rotate
	// Sweep alternates one second of rotation with one second of panning,
	// mimicking an interactive review session.
	Sweep
)

// String returns the motion-kind name.
func (m MotionKind) String() string {
	switch m {
	case Still:
		return "still"
	case Pan:
		return "pan"
	case Rotate:
		return "rotate"
	case Sweep:
		return "sweep"
	default:
		return fmt.Sprintf("MotionKind(%d)", int(m))
	}
}

// Config describes a synthetic sequence.
type Config struct {
	Width, Height int
	FPS           float64
	Frames        int
	Class         Class
	Motion        MotionKind
	// PanVX, PanVY give the pan velocity in pixels per frame (used by Pan
	// and the pan phases of Sweep). Zero values default to (1.5, 0).
	PanVX, PanVY float64
	// RotateDegPerFrame is the rotation rate (default 0.6°/frame ≈ 14°/s
	// at 24 FPS, matching slow diagnostic rotation).
	RotateDegPerFrame float64
	// NoiseSigma is the standard deviation of additive sensor noise in
	// sample units (default 2.0; set negative to disable).
	NoiseSigma float64
	// Seed makes the procedural anatomy and noise deterministic.
	Seed int64
}

// Default returns the paper's evaluation geometry: 640×480 @ 24 Hz.
func Default() Config {
	return Config{
		Width: 640, Height: 480, FPS: 24, Frames: 48,
		Class: Brain, Motion: Rotate, Seed: 1,
	}
}

func (c *Config) applyDefaults() {
	if c.PanVX == 0 && c.PanVY == 0 {
		c.PanVX = 1.5
	}
	if c.RotateDegPerFrame == 0 {
		c.RotateDegPerFrame = 0.6
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 2.0
	}
}

// validate reports configuration errors.
func (c Config) validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("medgen: invalid size %dx%d", c.Width, c.Height)
	}
	if c.Width%2 != 0 || c.Height%2 != 0 {
		return fmt.Errorf("medgen: size %dx%d must be even for 4:2:0", c.Width, c.Height)
	}
	if c.FPS <= 0 {
		return fmt.Errorf("medgen: invalid fps %v", c.FPS)
	}
	if c.Frames <= 0 {
		return fmt.Errorf("medgen: invalid frame count %d", c.Frames)
	}
	if c.Class < 0 || c.Class >= numClasses {
		return fmt.Errorf("medgen: invalid class %d", int(c.Class))
	}
	return nil
}

// Generator renders the frames of one synthetic sequence. It is a
// core.FrameSource whose frames are read-only: the sessions that share one
// generator share each frame it renders.
type Generator struct {
	cfg Config

	mu   sync.Mutex
	kept map[int]*video.Frame
}

// maxKeptBytes caps the pixel bytes one generator keeps. It holds the
// largest reuse the experiments have: Table II at 640×480 plays frames
// 0–16 of each corpus video, 7.5 MiB. A frame past the cap is rendered
// again on every call, which costs time but never changes a pixel.
const maxKeptBytes = 8 << 20

// NewGenerator validates cfg and returns a renderer for it.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	return &Generator{cfg: cfg, kept: map[int]*video.Frame{}}, nil
}

// Config returns the (defaulted) configuration in effect.
func (g *Generator) Config() Config { return g.cfg }

// Len returns the number of frames in the sequence.
func (g *Generator) Len() int { return g.cfg.Frames }

// FPS returns the sequence frame rate.
func (g *Generator) FPS() float64 { return g.cfg.FPS }

// Class names the body part, the workload class of LUT sharing.
func (g *Generator) Class() string { return g.cfg.Class.String() }

// pose is the rigid transform of the anatomy at a frame: rotation angle in
// radians about the frame center plus a translation.
type pose struct {
	theta  float64
	tx, ty float64
}

// poseAt evaluates the motion script at frame n.
func (g *Generator) poseAt(n int) pose {
	c := g.cfg
	switch c.Motion {
	case Still:
		return pose{}
	case Pan:
		return pose{tx: c.PanVX * float64(n), ty: c.PanVY * float64(n)}
	case Rotate:
		return pose{theta: c.RotateDegPerFrame * math.Pi / 180 * float64(n)}
	case Sweep:
		// Alternate one-second phases: even seconds rotate, odd seconds pan.
		spf := int(c.FPS)
		if spf <= 0 {
			spf = 24
		}
		var p pose
		for k := 0; k < n; k++ {
			if (k/spf)%2 == 0 {
				p.theta += c.RotateDegPerFrame * math.Pi / 180
			} else {
				p.tx += c.PanVX
				p.ty += c.PanVY
			}
		}
		return p
	default:
		return pose{}
	}
}

// Frame returns frame n (0-based), rendered on first use and kept under the
// cap. The memo grows with the frames asked for, never with cfg.Frames.
// The lock is held while rendering: sessions on one video want the same
// frame at once.
func (g *Generator) Frame(n int) *video.Frame {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.kept[n]; ok {
		return f
	}
	f := g.render(n)
	if len(g.kept) < maxKeptBytes/(g.cfg.Width*g.cfg.Height*3/2) {
		g.kept[n] = f
	}
	return f
}

// render draws frame n.
func (g *Generator) render(n int) *video.Frame {
	c := g.cfg
	f := video.NewFrame(c.Width, c.Height)
	f.Number = n
	f.PTS = float64(n) / c.FPS
	p := g.poseAt(n)
	cx, cy := float64(c.Width)/2, float64(c.Height)/2
	cosT, sinT := math.Cos(-p.theta), math.Sin(-p.theta)
	tex := classTexture(c.Class, c.Seed)
	// Per-frame deterministic noise stream: reseed from (Seed, n) so that a
	// frame's content does not depend on which frames were rendered before.
	nz := newSplitMix(uint64(c.Seed)*0x100000001b3 + uint64(n) + 1)
	for y := 0; y < c.Height; y++ {
		row := f.Y.Row(y)
		for x := 0; x < c.Width; x++ {
			// Inverse-transform the pixel into anatomy space so that the
			// whole frame moves rigidly (consistent motion direction).
			dx := float64(x) - cx - p.tx
			dy := float64(y) - cy - p.ty
			u := dx*cosT - dy*sinT
			v := dx*sinT + dy*cosT
			s := tex.sample(u, v, cx, cy)
			if c.NoiseSigma > 0 {
				// Sensor noise is signal-dependent (Poisson-like): dark
				// background is nearly silent, bright tissue carries the
				// full sigma. This matches clinical acquisitions, where
				// the air background of an MRI/CT frame is essentially
				// flat — the property that lets the paper's CV- and
				// pixel-comparison metrics classify borders as low.
				scale := 0.1 + 0.9*s/255
				if scale > 1 {
					scale = 1
				}
				s += nz.gauss() * c.NoiseSigma * scale
			}
			row[x] = video.ClampU8(int(s + 0.5))
		}
	}
	renderChroma(f, c.Class)
	return f
}

// Sequence renders all frames.
func (g *Generator) Sequence() *video.Sequence {
	frames := make([]*video.Frame, g.cfg.Frames)
	for i := range frames {
		frames[i] = g.Frame(i)
	}
	return video.NewSequence(g.cfg.FPS, frames...)
}

// renderChroma fills chroma with a mild class-dependent tint; chroma carries
// no diagnostic content in the grayscale modalities modeled here.
func renderChroma(f *video.Frame, class Class) {
	cb := uint8(128 + int(class)%3 - 1)
	cr := uint8(128 - int(class)%3 + 1)
	f.Cb.Fill(cb)
	f.Cr.Fill(cr)
}

// texture is a procedural anatomy model evaluated in object space.
type texture struct {
	class Class
	// Ellipse half-axes as fractions of the frame half-extents.
	ax, ay float64
	// Feature blobs (lesions / vertebrae / ribs) placed deterministically.
	blobs []blob
	// Texture field parameters.
	freqU, freqV float64
	gain         float64
	base         float64
	seed         int64
}

type blob struct {
	u, v, r, amp float64
}

// classTexture builds the deterministic anatomy for a class and seed.
func classTexture(class Class, seed int64) *texture {
	rng := newSplitMix(uint64(seed)*2654435761 + uint64(class) + 7)
	t := &texture{class: class, seed: seed}
	switch class {
	case Brain:
		t.ax, t.ay = 0.62, 0.72
		t.freqU, t.freqV = 0.055, 0.047
		t.gain, t.base = 34, 120
	case Chest:
		t.ax, t.ay = 0.78, 0.64
		t.freqU, t.freqV = 0.035, 0.09
		t.gain, t.base = 42, 105
	case Bone:
		t.ax, t.ay = 0.45, 0.8
		t.freqU, t.freqV = 0.02, 0.13
		t.gain, t.base = 55, 140
	case SpinalCord:
		t.ax, t.ay = 0.35, 0.85
		t.freqU, t.freqV = 0.11, 0.03
		t.gain, t.base = 40, 115
	case Ligament:
		t.ax, t.ay = 0.6, 0.55
		t.freqU, t.freqV = 0.08, 0.08
		t.gain, t.base = 30, 110
	}
	nBlobs := 4 + int(rng.next()%5)
	for i := 0; i < nBlobs; i++ {
		t.blobs = append(t.blobs, blob{
			u:   (rng.float() - 0.5) * 0.9,
			v:   (rng.float() - 0.5) * 0.9,
			r:   0.04 + 0.08*rng.float(),
			amp: 25 + 50*rng.float(),
		})
	}
	return t
}

// sample evaluates the anatomy intensity at object-space point (u, v) where
// (hx, hy) are the frame half-extents. Outside the body ellipse the value
// decays quickly to a dark, essentially textureless background.
func (t *texture) sample(u, v, hx, hy float64) float64 {
	nu, nv := u/(hx*t.ax), v/(hy*t.ay)
	r2 := nu*nu + nv*nv
	if r2 >= 1 {
		// Border/corner region: a dark, nearly flat floor with a faint
		// vignette toward the body so it is not bit-exactly constant
		// (real sensors are not), yet carries no diagnostic texture.
		return 8 + 4/(1+2*(r2-1))
	}
	// Body: radial shading + oriented tissue texture + blobs. The texture
	// mixes incommensurate frequencies under a slow amplitude modulation,
	// so — like real tissue — it is locally structured but NOT periodic:
	// block matching has a unique motion optimum with no alias minima one
	// pseudo-period away.
	s := t.base * (1 - 0.35*r2)
	am := 1 + 0.35*math.Sin(0.013*u+0.7)*math.Cos(0.011*v-0.3)
	tex1 := math.Sin(u*t.freqU*2*math.Pi+3*nv) * math.Cos(v*t.freqV*2*math.Pi-2*nu)
	tex2 := math.Sin(u*t.freqU*2*math.Pi*0.381 + v*t.freqV*2*math.Pi*0.617) // golden-ratio-ish detuning
	s += t.gain * am * (0.7*tex1 + 0.5*tex2)
	// Interior ring (skull / pleura / cortical bone).
	ring := math.Abs(math.Sqrt(r2) - 0.88)
	if ring < 0.05 {
		s += 70 * (1 - ring/0.05)
	}
	for _, b := range t.blobs {
		du, dv := nu-b.u, nv-b.v
		d2 := du*du + dv*dv
		if d2 < b.r*b.r*4 {
			s += b.amp * math.Exp(-d2/(b.r*b.r))
		}
	}
	return s
}

// splitMix is a SplitMix64 PRNG: tiny, fast, deterministic, and sufficient
// for procedural textures and noise. We avoid math/rand so that generated
// content is stable across Go releases.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitMix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// gauss returns a standard normal value via the Box–Muller transform.
func (s *splitMix) gauss() float64 {
	u1 := s.float()
	for u1 == 0 {
		u1 = s.float()
	}
	u2 := s.float()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
