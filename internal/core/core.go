// Package core implements the paper's framework (Fig. 2): the per-GOP
// pipeline that turns an incoming bio-medical video into tile-encoding
// threads with per-tile encoding configurations, plus the multi-user
// serving loop that feeds the thread allocator and DVFS policy.
//
// Pipeline stages, in the paper's lettering:
//
//	A  — Motion & texture evaluation        (internal/analysis)
//	B  — Content-aware re-tiling            (internal/tiling)
//	C  — Per-tile quality-aware encoding
//	     configuration: QP + motion search  (internal/quality, internal/motion)
//	D1 — Workload estimation                (internal/workload)
//	D2 — Thread allocation & DVFS           (internal/sched, internal/mpsoc)
//
// Stages A–C and the encode itself live in Session; D1–D2 live in Server,
// which coordinates many sessions over a shared platform.
package core

import (
	"fmt"

	"repro/internal/video"
)

// FrameSource yields the frames of one video on demand. medgen.Generator
// satisfies it via the SourceFromGenerator adapter.
type FrameSource interface {
	// Frame returns display-order frame n (0 ≤ n < Len()).
	Frame(n int) *video.Frame
	// Len returns the number of frames.
	Len() int
	// FPS returns the nominal frame rate.
	FPS() float64
	// Class names the body-part class for workload LUT sharing.
	Class() string
}

// generator is the subset of medgen.Generator the adapter needs; declared
// locally to avoid importing medgen into core (core is generic over frame
// sources).
type generator interface {
	Frame(n int) *video.Frame
}

// generatorSource adapts a lazy frame generator.
type generatorSource struct {
	gen    generator
	frames int
	fps    float64
	class  string
}

// SourceFromGenerator wraps a lazy generator (e.g. *medgen.Generator).
func SourceFromGenerator(gen generator, frames int, fps float64, class string) (FrameSource, error) {
	if gen == nil {
		return nil, fmt.Errorf("core: nil generator")
	}
	if frames <= 0 || fps <= 0 {
		return nil, fmt.Errorf("core: invalid source geometry (%d frames @ %v fps)", frames, fps)
	}
	return &generatorSource{gen: gen, frames: frames, fps: fps, class: class}, nil
}

func (g *generatorSource) Frame(n int) *video.Frame { return g.gen.Frame(n) }
func (g *generatorSource) Len() int                 { return g.frames }
func (g *generatorSource) FPS() float64             { return g.fps }
func (g *generatorSource) Class() string            { return g.class }
