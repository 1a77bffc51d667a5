package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mpsoc"
	"repro/internal/sched"
)

// sessKey names one session of a pass: the unit that serves it and its
// unit-local id.
type sessKey struct{ unit, id int }

// counts are the additive counters of a pass, over its measured rounds
// unless noted.
type counts struct {
	frames, gops, fullQualityGOPs  int
	psnrSum                        float64
	bits                           int64
	tileTime, searchTime           time.Duration // Σ TileStats.EncodeTime / SearchTime
	searchEvals                    int64
	interBlk, intraBlk, skippedBlk int64
	tiles, pixels                  int64
	admitted, timedOut, preempted  int
	escalations                    int
	estErrSum                      float64
	estErrTiles                    int
	measuredRounds                 int
	framesAll                      int // frames served over the whole pass, warm-up included
}

func (c *counts) add(o *counts) {
	c.frames += o.frames
	c.gops += o.gops
	c.fullQualityGOPs += o.fullQualityGOPs
	c.psnrSum += o.psnrSum
	c.bits += o.bits
	c.tileTime += o.tileTime
	c.searchTime += o.searchTime
	c.searchEvals += o.searchEvals
	c.interBlk += o.interBlk
	c.intraBlk += o.intraBlk
	c.skippedBlk += o.skippedBlk
	c.tiles += o.tiles
	c.pixels += o.pixels
	c.admitted += o.admitted
	c.timedOut += o.timedOut
	c.preempted += o.preempted
	c.escalations += o.escalations
	c.estErrSum += o.estErrSum
	c.estErrTiles += o.estErrTiles
	c.measuredRounds += o.measuredRounds
	c.framesAll += o.framesAll
}

// unitAcc accumulates what one serving loop (a fleet shard, or a dist
// agent's shard) did. Only that loop's serving goroutine writes it, from
// the round hook and the sink, and float sums are formed in session-id
// order — so the totals are bit-identical however the goroutines interleave.
type unitAcc struct {
	counts
	rounds   int       // rounds settled so far (warm-up included)
	last     time.Time // when this unit's previous hook returned
	skipNext bool      // the next round follows an idle wait: do not time it

	roundMs                []float64 // measured rounds only
	energyStart, energyEnd mpsoc.Totals
	lastPlans              []mpsoc.CorePlan
	rungOf                 map[int]core.LadderState
	digests                map[int][]uint64
	firstGOPAt             map[int]time.Time
	capturedGOPs           []*capturedGOP
	keptGOPs               []*capturedGOP // first two GOPs of the sessions that keep bitstreams
}

// capturedGOP is one served GOP kept for the layer probes: which session
// served it and the report the program handed out.
type capturedGOP struct {
	unit, session int
	report        *core.GOPReport
}

// recorder is the measurement side of one pass: round timing, the
// measured window, host-reference sampling and every count the metrics
// are computed from.
type recorder struct {
	warm    int
	refReps int
	tr      *tracer
	capture bool // keep GOP reports for the probes (traced pass)

	setupRef *refSampler
	winRef   *refSampler

	units []unitAcc

	mu       sync.Mutex
	arrived  int
	gate     chan struct{}
	gateErr  error
	winStart time.Time
	winEnd   time.Time
	cpuStart time.Duration
	cpuEnd   time.Duration
	memStart runtime.MemStats
	memEnd   runtime.MemStats

	submitAt  map[sessKey]time.Time
	submitDur []float64 // µs per submit call, client side
	offered   int       // frames offered over the whole pass
}

func newRecorder(units, warm, refReps int, tr *tracer, setupRef *refSampler) *recorder {
	r := &recorder{
		warm: warm, refReps: refReps, tr: tr, capture: tr != nil,
		setupRef: setupRef, winRef: setupRef.host.phase(),
		units: make([]unitAcc, units), gate: make(chan struct{}),
		submitAt: make(map[sessKey]time.Time),
	}
	for i := range r.units {
		r.units[i].rungOf = make(map[int]core.LadderState)
		r.units[i].digests = make(map[int][]uint64)
		r.units[i].firstGOPAt = make(map[int]time.Time)
	}
	return r
}

// start stamps every unit's clock when its serving loop is about to run.
func (r *recorder) start() {
	now := time.Now()
	for i := range r.units {
		r.units[i].last = now
		r.tr.openRound(i, now)
	}
}

// windowOpen reports whether the measured window has started.
func (r *recorder) windowOpen() bool {
	select {
	case <-r.gate:
		return true
	default:
		return false
	}
}

// onRound is the body of every round hook. It runs on the unit's serving
// goroutine after the round settled and the sinks saw it. arrivals, when
// set, submits the sessions the workload's schedule has due; it runs after
// the reference kernel so the kernel never times a cold cache left by a
// submit.
func (r *recorder) onRound(unit int, out *core.GOPOutcome, arrivals func()) {
	now := time.Now()
	u := &r.units[unit]
	r.tr.closeRound(unit, now)
	measured := u.rounds >= r.warm
	if measured && !u.skipNext {
		u.roundMs = append(u.roundMs, float64(now.Sub(u.last))/1e6)
	}
	u.skipNext = len(out.Ladder) == 0 // nothing left queued: the loop idles next
	r.account(unit, out, measured)
	u.rounds++
	if u.rounds == r.warm {
		r.arriveAtGate(u, out)
	}
	if r.windowOpen() {
		r.winRef.sample(r.refReps)
	} else {
		r.setupRef.sample(r.refReps)
	}
	if arrivals != nil {
		arrivals()
	}
	u.last = time.Now()
	r.tr.openRound(unit, u.last)
}

// arriveAtGate holds a unit that finished its warm-up until every unit
// has; the last one to arrive opens the measured window.
func (r *recorder) arriveAtGate(u *unitAcc, out *core.GOPOutcome) {
	u.energyStart = out.Totals
	r.mu.Lock()
	r.arrived++
	last := r.arrived == len(r.units)
	r.mu.Unlock()
	if last {
		runtime.ReadMemStats(&r.memStart)
		r.cpuStart = cpuClock(clockProcessCPU)
		r.winStart = time.Now()
		close(r.gate)
		return
	}
	select {
	case <-r.gate:
	case <-time.After(2 * time.Minute):
		r.mu.Lock()
		r.gateErr = fmt.Errorf("a unit never finished its %d warm-up rounds", r.warm)
		r.mu.Unlock()
	}
}

// finish closes the measured window. Call it once the pass's serving
// loops have returned.
func (r *recorder) finish() error {
	r.winEnd = time.Now()
	r.cpuEnd = cpuClock(clockProcessCPU)
	runtime.ReadMemStats(&r.memEnd)
	for i := range r.units {
		r.tr.closeRound(i, r.winEnd)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gateErr != nil {
		return r.gateErr
	}
	if !r.windowOpen() {
		return fmt.Errorf("the measured window never opened: %d of %d units finished warm-up", r.arrived, len(r.units))
	}
	return nil
}

// account folds one settled round into the unit's totals.
func (r *recorder) account(unit int, out *core.GOPOutcome, measured bool) {
	u := &r.units[unit]
	u.energyEnd = out.Totals
	if out.Allocation != nil {
		u.lastPlans = out.Allocation.Plans
	}
	if measured {
		u.measuredRounds++
		u.admitted += len(out.AdmittedUsers)
		u.timedOut += len(out.TimedOut)
		u.preempted += len(out.Preempted)
		u.estErrSum += out.EstimateErr * float64(out.EstimateTiles)
		u.estErrTiles += out.EstimateTiles
	}
	// Ascending session id: float sums must not depend on map order.
	for _, id := range sortedInts(out.AdmittedUsers) {
		gop := out.GOPs[id]
		if gop == nil {
			continue
		}
		u.digests[id] = append(u.digests[id], gop.Digest)
		u.framesAll += len(gop.Frames)
		if gop.Index < keptGOPsPerSession && len(gop.Frames) > 0 && gop.Frames[0].Bitstream != nil {
			u.keptGOPs = append(u.keptGOPs, &capturedGOP{unit: unit, session: id, report: gop})
		}
		state, live := out.Ladder[id]
		if !live {
			state = u.rungOf[id] // finished this round: its last known rung
		}
		if !measured {
			continue
		}
		u.gops++
		if state.Rung == 0 && !state.RateHalved {
			u.fullQualityGOPs++
		}
		for i := range gop.Frames {
			fr := &gop.Frames[i]
			u.frames++
			u.psnrSum += fr.PSNR
			u.bits += int64(fr.Bits)
			for j := range fr.Tiles {
				ts := &fr.Tiles[j]
				u.tiles++
				u.pixels += int64(ts.Tile.Area())
				u.tileTime += ts.EncodeTime
				u.searchTime += ts.SearchTime
				u.searchEvals += int64(ts.SearchEvals)
				u.interBlk += int64(ts.InterBlocks)
				u.intraBlk += int64(ts.IntraBlocks)
				u.skippedBlk += int64(ts.SkippedBlocks)
			}
		}
		if r.capture && len(u.capturedGOPs) < 6 && (gop.Index == 0 || gop.Index%5 == 2) {
			u.capturedGOPs = append(u.capturedGOPs, &capturedGOP{unit: unit, session: id, report: gop})
		}
	}
	for id, st := range out.Ladder {
		if measured {
			if d := st.Rung - u.rungOf[id].Rung; d > 0 {
				u.escalations += d
			}
		}
		u.rungOf[id] = st
	}
}

func sortedInts(xs []int) []int {
	if sort.IntsAreSorted(xs) {
		return xs
	}
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s
}

// submitted notes that a session was accepted: when Submit returned (the
// start of its first-GOP latency) and how many frames it offers.
func (r *recorder) submitted(key sessKey, frames int, returned time.Time, took time.Duration) {
	r.mu.Lock()
	r.submitAt[key] = returned
	r.offered += frames
	r.submitDur = append(r.submitDur, float64(took)/1e3)
	r.mu.Unlock()
}

// refused notes a session the system would not take at all.
func (r *recorder) refused(frames int) {
	r.mu.Lock()
	r.offered += frames
	r.mu.Unlock()
}

// firstGOP notes when a session's first GOP reached the sink. Sink
// delivery is serialized by the fleet, but two dist agents have a fleet
// each, hence the per-unit map.
func (r *recorder) firstGOP(key sessKey, at time.Time) {
	r.units[key.unit].firstGOPAt[key.id] = at
}

// countingAllocator wraps a stage-D2 policy at the registry boundary: it
// counts and times every solve (a memo hit never reaches it).
type allocProbe struct {
	tr     *tracer
	unitOf func(sched.Input) int

	mu    sync.Mutex
	durs  []float64   // µs per solve, while the window is open
	gated func() bool // reports whether the window is open
}

func (p *allocProbe) wrap(fn sched.Allocator) sched.Allocator {
	return func(in sched.Input) (*sched.Result, error) {
		t0 := time.Now()
		res, err := fn(in)
		t1 := time.Now()
		if p.gated() {
			p.mu.Lock()
			p.durs = append(p.durs, float64(t1.Sub(t0))/1e3)
			p.mu.Unlock()
		}
		if p.tr != nil {
			p.tr.record("sched.allocate", p.unitOf(in), -1, t0, t1)
		}
		return res, err
	}
}

// registry builds a private sched.Registry whose built-in policies are
// wrapped by the probe, for serve.WithRegistry.
func (p *allocProbe) registry() (*sched.Registry, error) {
	reg := sched.NewRegistry()
	for _, e := range sched.Default.All() {
		if err := reg.Register(e.Name, e.Description, p.wrap(e.Func)); err != nil {
			return nil, err
		}
	}
	return reg, nil
}
