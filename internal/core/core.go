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

import "repro/internal/video"

// FrameSource yields the frames of one video on demand; *medgen.Generator
// is one. A frame it returns is read-only: a source may hand the same
// frame to every caller and every session that plays it (the generator's
// memo, YUVFileSource's cache), so nothing may write into it.
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
