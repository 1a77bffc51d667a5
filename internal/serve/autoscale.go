package serve

import (
	"fmt"
	"sort"
)

// The fleet control loop, part 1: autoscaling (DESIGN.md §7). The paper's
// per-MPSoC controller reacts to load every GOP; WithAutoscale lifts the
// same closed-loop idea one level up — Fleet.Run watches the fleet-wide
// demand-normalized utilization (summed session core demand over summed
// alive-shard capacity, see core.LoadReport) every settled round and calls
// Resize through a hysteresis window, so every embedder scales without
// re-implementing the loop. The policy kernel (scalePolicy) is pure
// state-machine code, separated from the goroutine plumbing so tests can
// drive it round by round.

// ScheduledResize is one forced entry of an autoscale schedule: once the
// fleet has served AfterRounds total rounds, resize to Shards. Schedules
// exist for reproducible demos and CI smokes — a pending schedule outranks
// the load policy, which stays quiet until the schedule has played out.
type ScheduledResize struct {
	AfterRounds int
	Shards      int
}

// AutoscaleConfig parametrizes the fleet's scaling loop (WithAutoscale).
type AutoscaleConfig struct {
	// MinShards and MaxShards bound the live shard count; the loop never
	// resizes outside [MinShards, MaxShards]. 0 defaults either bound to
	// the fleet's initial shard count, and a Schedule entry outside the
	// bounds widens them (an explicit schedule is never silently clamped
	// into a no-op).
	MinShards, MaxShards int
	// TargetUtil is the demand-normalized utilization the loop steers
	// toward (default 0.75): it grows when the fleet-wide utilization —
	// summed session core demand over summed alive-shard capacity —
	// exceeds TargetUtil, and shrinks when the demand would still fit
	// within TargetUtil on the capacity that remains after retiring the
	// highest-indexed shard. Demand-weighted on heterogeneous fleets: a
	// big shard absorbs proportionally more demand before the fleet
	// counts as saturated. (This knob replaced the session-count
	// TargetLoad — sessions differing by an order of magnitude in demand
	// made a per-shard session target meaningless.)
	TargetUtil float64
	// Window is the hysteresis: that many consecutive saturated (or idle)
	// round observations before a resize, and any observation on the other
	// side of the threshold resets the count (default 2).
	Window int
	// Schedule forces resizes at fixed round counts, in order; while any
	// entry is pending the load policy is suppressed.
	Schedule []ScheduledResize
	// OnResize, when set, is invoked from the scaling goroutine just
	// before each Resize call.
	OnResize func(from, to int, reason string)
	// OnError, when set, receives Resize failures (the loop keeps going).
	OnError func(err error)
}

// WithAutoscale runs the load-watching scaling loop inside Fleet.Run: a
// dedicated goroutine (resizes must never run on serving goroutines)
// observes every settled fleet round and applies cfg's schedule and
// hysteresis policy through Fleet.Resize. The loop starts with Run and
// stops when Run returns.
func WithAutoscale(cfg AutoscaleConfig) Option {
	return func(o *options) { o.autoscale = &cfg }
}

// validateAutoscale applies defaults and checks the config against the
// fleet's initial shard count n. Called from New.
func validateAutoscale(cfg *AutoscaleConfig, n int) error {
	if cfg.TargetUtil == 0 {
		cfg.TargetUtil = 0.75
	}
	if !(cfg.TargetUtil > 0) { // NaN-safe
		return fmt.Errorf("serve: autoscale target utilization %v", cfg.TargetUtil)
	}
	if cfg.Window == 0 {
		cfg.Window = 2
	}
	if cfg.Window < 0 {
		return fmt.Errorf("serve: autoscale window %d", cfg.Window)
	}
	if cfg.MinShards == 0 {
		cfg.MinShards = n
	}
	if cfg.MaxShards == 0 {
		cfg.MaxShards = n
	}
	if cfg.MinShards < 1 || cfg.MinShards > cfg.MaxShards {
		return fmt.Errorf("serve: autoscale bounds [%d, %d]", cfg.MinShards, cfg.MaxShards)
	}
	for _, st := range cfg.Schedule {
		if st.Shards < 1 {
			return fmt.Errorf("serve: scheduled resize to %d shards", st.Shards)
		}
		if st.Shards < cfg.MinShards {
			cfg.MinShards = st.Shards
		}
		if st.Shards > cfg.MaxShards {
			cfg.MaxShards = st.Shards
		}
	}
	if n < cfg.MinShards || n > cfg.MaxShards {
		return fmt.Errorf("serve: %d shards outside autoscale bounds [%d, %d]", n, cfg.MinShards, cfg.MaxShards)
	}
	return nil
}

// loadObservation is one settled-round snapshot of the alive shards —
// what the scale policy decides on. Dead shards (Alive false in
// Fleet.Loads) contribute nothing.
type loadObservation struct {
	// live counts the alive shards.
	live int
	// demand and capacity sum the alive shards' DemandCores and
	// CapacityCores.
	demand, capacity int
	// retireCap is the capacity of the shard a shrink would remove — the
	// highest-indexed alive shard (0 when none).
	retireCap int
}

// util is the fleet-wide demand-normalized utilization.
func (o loadObservation) util() float64 {
	if o.capacity <= 0 {
		return 0
	}
	return float64(o.demand) / float64(o.capacity)
}

// shrunkUtil is the utilization the fleet would run at after retiring the
// highest-indexed alive shard; +Inf-like sentinel via capacity 0 is
// avoided by reporting util 0 only when nothing would remain (the bounds
// check keeps such a shrink from firing anyway).
func (o loadObservation) shrunkUtil() float64 {
	rem := o.capacity - o.retireCap
	if rem <= 0 {
		return 0
	}
	return float64(o.demand) / float64(rem)
}

// scalePolicy is the pure decision kernel: fed one observation per settled
// fleet round, it says when to resize and to what. Not safe for concurrent
// use — the autoscaler goroutine owns it (and tests drive it directly).
type scalePolicy struct {
	min, max int
	target   float64
	window   int
	schedule []ScheduledResize

	upRun, dnRun int
}

func newScalePolicy(cfg AutoscaleConfig) *scalePolicy {
	sched := append([]ScheduledResize(nil), cfg.Schedule...)
	sort.SliceStable(sched, func(a, b int) bool { return sched[a].AfterRounds < sched[b].AfterRounds })
	return &scalePolicy{
		min:      cfg.MinShards,
		max:      cfg.MaxShards,
		target:   cfg.TargetUtil,
		window:   cfg.Window,
		schedule: sched,
	}
}

// observe feeds one settled-round observation: rounds is the total fleet
// round count, obs the alive shards' demand/capacity snapshot. It returns
// the shard count to resize to (clamped to the bounds) and the reason
// when a resize is due. A pending schedule entry fires first and
// suppresses the load policy; the load policy itself resizes one shard at
// a time after window consecutive observations on the same side of the
// target utilization, with any contrary observation resetting the run —
// the hysteresis that keeps a load oscillating around the threshold from
// ping-ponging the fleet. Growth and shrink cannot ping-pong each other
// either: a grow fires at util above target, and the shrink test asks
// whether the demand fits within target on the *post-shrink* capacity —
// right after a justified grow it cannot.
func (p *scalePolicy) observe(rounds int, obs loadObservation) (int, string, bool) {
	if len(p.schedule) > 0 {
		if rounds >= p.schedule[0].AfterRounds {
			st := p.schedule[0]
			p.schedule = p.schedule[1:]
			return p.clamp(st.Shards), "scheduled", true
		}
		return 0, "", false // let the schedule play out before reacting to load
	}
	if p.min >= p.max || obs.live == 0 {
		return 0, "", false
	}
	switch {
	case obs.live < p.max && obs.util() > p.target:
		p.upRun++
		p.dnRun = 0
		if p.upRun >= p.window {
			p.upRun = 0
			return p.clamp(obs.live + 1), fmt.Sprintf("sustained saturation (util %.2f over %d shards)", obs.util(), obs.live), true
		}
	case obs.live > p.min && obs.shrunkUtil() <= p.target:
		p.dnRun++
		p.upRun = 0
		if p.dnRun >= p.window {
			p.dnRun = 0
			return p.clamp(obs.live - 1), fmt.Sprintf("sustained idleness (util %.2f after retiring one of %d shards)", obs.shrunkUtil(), obs.live), true
		}
	default:
		p.upRun, p.dnRun = 0, 0
	}
	return 0, "", false
}

// pending reports whether schedule entries remain.
func (p *scalePolicy) pending() bool { return len(p.schedule) > 0 }

// clamp bounds a target shard count to [min, max].
func (p *scalePolicy) clamp(n int) int {
	if n > p.max {
		n = p.max
	}
	if n < p.min {
		n = p.min
	}
	return n
}

// autoscaler is the runtime around the policy: a goroutine fed one tick
// per settled fleet round (non-blocking from the serving goroutines), so
// Resize — which waits for drained shards' serving loops — never runs on
// a serving goroutine.
type autoscaler struct {
	fleet   *Fleet
	cfg     AutoscaleConfig
	policy  *scalePolicy
	ticks   chan int
	done    chan struct{}
	stopped chan struct{}
}

func newAutoscaler(f *Fleet, cfg AutoscaleConfig) *autoscaler {
	a := &autoscaler{
		fleet:   f,
		cfg:     cfg,
		policy:  newScalePolicy(cfg),
		ticks:   make(chan int, 64),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go a.loop()
	return a
}

// tick reports a settled fleet round (non-blocking; called from serving
// goroutines via the fleet's round dispatch).
func (a *autoscaler) tick(totalRounds int) {
	select {
	case a.ticks <- totalRounds:
	default:
	}
}

// stop ends the loop and waits for an in-flight resize to land.
func (a *autoscaler) stop() {
	close(a.done)
	<-a.stopped
}

func (a *autoscaler) loop() {
	defer close(a.stopped)
	for {
		select {
		case <-a.done:
			return
		case rounds := <-a.ticks:
			// A tick can fire several overdue schedule entries back to
			// back (each resize lands before the next is considered); the
			// load policy decides at most once per tick.
			for {
				n, reason, ok := a.policy.observe(rounds, a.fleet.loadObservation())
				if !ok {
					break
				}
				a.resize(n, reason)
				if !a.policy.pending() && reason != "scheduled" {
					break
				}
			}
		}
	}
}

// resize applies one decision, skipping no-ops.
func (a *autoscaler) resize(n int, reason string) {
	from := a.fleet.Shards()
	if n == from {
		return
	}
	if a.cfg.OnResize != nil {
		a.cfg.OnResize(from, n, reason)
	}
	if err := a.fleet.Resize(n); err != nil && a.cfg.OnError != nil {
		a.cfg.OnError(err)
	}
}

// loadObservation snapshots the alive shards' demand and capacity — the
// autoscale policy's observation.
func (f *Fleet) loadObservation() loadObservation {
	var o loadObservation
	for _, r := range f.Loads() {
		if !r.Alive {
			continue
		}
		o.live++
		o.demand += r.DemandCores
		o.capacity += r.CapacityCores
		// The highest-indexed alive shard is the one a shrink retires.
		o.retireCap = r.CapacityCores
	}
	return o
}
