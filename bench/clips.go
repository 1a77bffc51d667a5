package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/medgen"
	"repro/internal/video"
)

// clip is one pre-rendered medgen sequence. Rendering happens in set-up,
// never inside a timed region: medgen's texture synthesis costs more per
// frame than the encoder does.
type clip struct {
	index  int // position in the roster
	cfg    medgen.Config
	frames []*video.Frame
}

// The content roster. FROZEN, pixels included: class i plays motion i (the
// heaviest clip, rotating brain, sets core.round_ms_p90) and roster entry i
// is always rendered from medgen seed i+1. The run's -seed never reaches the
// generator. It decides what is done with the roster — where in its clip each
// session starts, which session gets which clip, who arrives when and as
// whose tenant — so every seed offers different inputs drawn from the same
// material, and bitrate, PSNR and energy differ between seeds by a few parts
// in ten thousand, not by what a different anatomy costs to code (that was
// 0.1–0.4%, wider than the bounds those metrics are held to).
var (
	clipClasses = []medgen.Class{medgen.Brain, medgen.Chest, medgen.Bone, medgen.SpinalCord}
	clipMotions = []medgen.MotionKind{medgen.Rotate, medgen.Pan, medgen.Sweep, medgen.Still}
)

// clipConfig is the medgen configuration of roster entry i.
func clipConfig(i, frames int) medgen.Config {
	mc := medgen.Default()
	mc.Width, mc.Height = frameW, frameH
	mc.FPS = frameFPS
	mc.Frames = frames
	mc.Class = clipClasses[i%len(clipClasses)]
	mc.Motion = clipMotions[i%len(clipMotions)]
	mc.Seed = int64(i) + 1
	return mc
}

// period is the length of the clip's ping-pong cycle.
func (c *clip) period() int { return max(2*len(c.frames)-2, 1) }

// renderClips renders n roster clips of the given length on up to procs goroutines, calling
// between after each clip finishes (the set-up phase samples the host
// reference kernel there).
func renderClips(n, frames, procs int, between func()) ([]*clip, error) {
	clips := make([]*clip, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				mc := clipConfig(i, frames)
				g, err := medgen.NewGenerator(mc)
				if err != nil {
					errs[i] = fmt.Errorf("clip %d: %w", i, err)
					continue
				}
				clips[i] = &clip{index: i, cfg: g.Config(), frames: g.Sequence().Frames}
				if between != nil {
					between()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return clips, nil
}

// clipSource plays a clip ping-pong (0,1,…,K−1,K−2,…,1,0,1,…), entering the
// cycle at position start, as a video of the given length. It is the core.FrameSource every workload hands
// to the system, and the benchmark's probe at the source boundary: it
// records a span per call when a tracer is attached.
type clipSource struct {
	clip   *clip
	start  int
	length int
	class  string

	// Probe state. unit and session are set once the session is placed;
	// calls made before that (NewSession reads frame 0) carry -1.
	tr      *tracer
	unit    atomic.Int32
	session atomic.Int32
}

func newClipSource(c *clip, start, length int, class string, tr *tracer) *clipSource {
	s := &clipSource{clip: c, start: start, length: length, class: class, tr: tr}
	s.unit.Store(-1)
	s.session.Store(-1)
	return s
}

func (s *clipSource) place(unit, session int) {
	s.unit.Store(int32(unit))
	s.session.Store(int32(session))
}

// Frame implements core.FrameSource.
func (s *clipSource) Frame(n int) *video.Frame {
	var t0 time.Time
	if s.tr != nil {
		t0 = time.Now()
	}
	k := len(s.clip.frames)
	i := (n + s.start) % s.clip.period()
	if i >= k {
		i = s.clip.period() - i
	}
	f := s.clip.frames[i]
	if s.tr != nil {
		s.tr.record("source.frame", int(s.unit.Load()), int(s.session.Load()), t0, time.Now())
	}
	return f
}

func (s *clipSource) Len() int      { return s.length }
func (s *clipSource) FPS() float64  { return s.clip.cfg.FPS }
func (s *clipSource) Class() string { return s.class }

var _ core.FrameSource = (*clipSource)(nil)
