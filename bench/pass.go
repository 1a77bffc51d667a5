package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/serve"
)

// sizing fixes how much work one pass does. It is derived from -seconds by
// frozen per-workload rates (see workloads), never from the clock: two
// commits run the same rounds and sessions, whichever is faster.
type sizing struct {
	warm     int // untimed warm-up rounds per unit
	rounds   int // measured rounds (steady workloads)
	sessions int // sessions offered (churn, dist)
	frames   int // frames per session (churn, dist)
	// clip is the length of the pre-rendered clips and probe how long each
	// timed probe loop runs; only the smoke test shortens them.
	clip  int
	probe time.Duration
}

// full fills in the clip length and probe budget of a run of record.
func (s sizing) full() sizing {
	s.clip, s.probe = clipFrames, probeBudget
	return s
}

// pass is one execution of one workload: the inputs, the probes the driver
// hands into the system, and the recorder they report to.
type pass struct {
	wl    *workloadSpec
	seed  int64
	size  sizing
	clips []*clip

	tr    *tracer // nil: tracing off
	rec   *recorder
	alloc *allocProbe
	sinks map[string]*sinkStats

	mu   sync.Mutex // guards srcs: shards and agents open sources concurrently
	srcs []*clipSource

	ext passExtras
}

func newPass(wl *workloadSpec, seed int64, size sizing, clips []*clip, tr *tracer, setupRef *refSampler) *pass {
	p := &pass{wl: wl, seed: seed, size: size, clips: clips, tr: tr, sinks: make(map[string]*sinkStats)}
	p.rec = newRecorder(wl.units, size.warm, wl.refReps, tr, setupRef)
	p.alloc = &allocProbe{tr: tr, gated: p.rec.windowOpen, unitOf: func(sched.Input) int { return 0 }}
	return p
}

// probe wraps one sink of a fleet whose shard 0 is unit unitBase.
func (p *pass) probe(name string, inner serve.Sink, unitBase int, lead bool) *probeSink {
	st := p.sinks[name]
	if st == nil {
		st = &sinkStats{}
		p.sinks[name] = st
	}
	return &probeSink{name: name, inner: inner, rec: p.rec, unitBase: unitBase, lead: lead, timed: p.tr != nil, stats: st}
}

// source builds the bench-owned FrameSource of one session.
func (p *pass) source(c *clip, start, frames int, class string) *clipSource {
	s := newClipSource(c, start, frames, class, p.tr)
	p.mu.Lock()
	p.srcs = append(p.srcs, s)
	p.mu.Unlock()
	return s
}

// submit hands one session to a fleet through its public front door and
// records when the call returned.
func (p *pass) submit(fleet *serve.Fleet, unitBase int, src *clipSource, cfg core.SessionConfig, tenant string, priority int) error {
	t0 := time.Now()
	pl, err := fleet.SubmitWith(serve.SubmitRequest{Source: src, Config: cfg, Tenant: tenant, Priority: priority})
	t1 := time.Now()
	if err != nil {
		p.rec.refused(src.Len())
		return err
	}
	unit := unitBase + pl.Shard
	src.place(unit, pl.Session.ID)
	p.rec.submitted(sessKey{unit, pl.Session.ID}, src.Len(), t1, t1.Sub(t0))
	p.tr.record("serve.submit", unit, pl.Session.ID, t0, t1)
	return nil
}

// serve drives run (a fleet's Run, or a dist cluster's lifetime) between
// the recorder's start and finish.
func (p *pass) serve(run func(ctx context.Context) error) error {
	p.rec.start()
	if err := run(context.Background()); err != nil {
		return err
	}
	return p.rec.finish()
}
