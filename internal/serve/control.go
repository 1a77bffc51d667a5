package serve

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// The fleet control policy (DESIGN.md §7). The paper's per-MPSoC
// controller makes one decision per GOP from one signal; the fleet lifts
// that to three loops — autoscale, hot-shard rebalance and demand-aware
// placement — that read one signal too, core.LoadReport, and decide here:
// every decision is made from one Fleet.Loads() snapshot, through one
// hysteresis type and one ordering of the members (PlacementOrder, which
// the dist master ranks its agents with as well). Each action still runs
// where it is legal: resize on the autoscaler's own goroutine (a drain
// waits for serving goroutines), a shed on the donor's serving goroutine
// at its round boundary (the ExportSession contract). resize and a shed
// exclude each other through Fleet.resizeMu alone: resize (or a shard's
// give-up handoff) holds it, a shed takes its read side with TryRLock and
// stands down if it cannot — sheds of different donors still run side by
// side.

// controlWindow is the hysteresis of every loop: consecutive observations
// on one side of a threshold before the loop acts.
const controlWindow = 2

// hysteresis fires after controlWindow consecutive observations on its
// side; any contrary observation resets it, so a load oscillating around
// a threshold never acts.
type hysteresis struct{ run int }

// observe feeds one observation (on: this side of the threshold) and
// reports whether the window just elapsed, restarting it when it did.
func (h *hysteresis) observe(on bool) bool {
	if !on {
		h.run = 0
		return false
	}
	h.run++
	if h.run < controlWindow {
		return false
	}
	h.run = 0
	return true
}

// SumLoads folds load reports into one: the alive members' sessions, core
// demand and capacity summed, Util their ratio, Alive when any member is.
// It is the fleet-wide observation the autoscaler decides on and the
// per-agent load the dist master ranks agents by.
func SumLoads(loads []core.LoadReport) core.LoadReport {
	var sum core.LoadReport
	for _, r := range loads {
		if !r.Alive {
			continue
		}
		sum.Alive = true
		sum.Sessions += r.Sessions
		sum.DemandCores += r.DemandCores
		sum.CapacityCores += r.CapacityCores
	}
	sum.Util = utilOf(sum.DemandCores, sum.CapacityCores)
	return sum
}

// utilOf is demand over capacity, 0 when nothing would serve it.
func utilOf(demand, capacity int) float64 {
	if capacity <= 0 {
		return 0
	}
	return float64(demand) / float64(capacity)
}

// PlacementOrder ranks the members of one load snapshot for a session
// whose class homes on member home (-1: none) and whose estimated core
// demand is demand (0: no estimate). The home leads while it is alive,
// holds fewer than capacity live sessions (0: unbounded) and has the
// free cores for demand. The rest follow in two bands: members that fit
// the demand, best fit first (ascending free cores, so small members
// saturate and big ones keep their headroom), then the others by
// ascending utilization, ties to fewer sessions; every remaining tie goes
// to the lower index. Members reporting Alive false never appear. The
// fleet orders its shards with it for Submit, drain, Import and a shed's
// target, and the dist master its agents.
func PlacementOrder(loads []core.LoadReport, home, demand, capacity int) []int {
	fits := func(i int) bool { return demand > 0 && loads[i].Free() >= demand }
	homeOK := home >= 0 && home < len(loads) && loads[home].Alive &&
		(capacity <= 0 || loads[home].Sessions < capacity) &&
		(demand <= 0 || fits(home))
	order := make([]int, 0, len(loads))
	if homeOK {
		order = append(order, home)
	}
	rest := len(order)
	for i, r := range loads {
		if r.Alive && !(i == home && homeOK) {
			order = append(order, i)
		}
	}
	tail := order[rest:]
	sort.Slice(tail, func(x, y int) bool {
		a, b := tail[x], tail[y]
		ra, rb := loads[a], loads[b]
		switch fa := fits(a); {
		case fa != fits(b):
			return fa
		case fa && ra.Free() != rb.Free():
			return ra.Free() < rb.Free()
		case !fa && ra.Util != rb.Util:
			return ra.Util < rb.Util
		case !fa && ra.Sessions != rb.Sessions:
			return ra.Sessions < rb.Sessions
		}
		return a < b
	})
	return order
}

// --- autoscale ---

// ScheduledResize is one forced entry of an autoscale schedule: once the
// fleet has served AfterRounds total rounds, resize to Shards. Schedules
// exist for reproducible demos and CI smokes — an unplayed schedule outranks
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
	// exceeds TargetUtil for controlWindow consecutive rounds, and shrinks
	// when for as many rounds the demand would still fit within TargetUtil
	// on the capacity that remains after retiring the highest-indexed
	// shard. Demand-weighted on heterogeneous fleets: a big shard absorbs
	// proportionally more demand before the fleet counts as saturated.
	TargetUtil float64
	// Schedule forces resizes at fixed round counts, in order; while any
	// entry is still to fire the load policy is suppressed.
	Schedule []ScheduledResize
	// OnResize, when set, is invoked from the scaling goroutine just
	// before each resize call.
	OnResize func(from, to int, reason string)
	// OnError, when set, receives resize failures (the loop keeps going).
	OnError func(err error)
}

// WithAutoscale runs the load-watching scaling loop inside Fleet.Run: a
// dedicated goroutine (resizes must never run on serving goroutines)
// observes every settled fleet round and applies cfg's schedule and
// hysteresis policy through Fleet.resize. The loop starts with Run and
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
		cfg.MinShards = min(cfg.MinShards, st.Shards)
		cfg.MaxShards = max(cfg.MaxShards, st.Shards)
	}
	if n < cfg.MinShards || n > cfg.MaxShards {
		return fmt.Errorf("serve: %d shards outside autoscale bounds [%d, %d]", n, cfg.MinShards, cfg.MaxShards)
	}
	return nil
}

// scalePolicy is the pure scale decision: fed one load snapshot per
// settled fleet round, it says when to resize and to what. Not safe for
// concurrent use — the autoscaler goroutine owns it (and tests drive it
// directly).
type scalePolicy struct {
	min, max     int
	target       float64
	schedule     []ScheduledResize
	grow, shrink hysteresis
}

func newScalePolicy(cfg AutoscaleConfig) *scalePolicy {
	sched := append([]ScheduledResize(nil), cfg.Schedule...)
	sort.SliceStable(sched, func(a, b int) bool { return sched[a].AfterRounds < sched[b].AfterRounds })
	return &scalePolicy{min: cfg.MinShards, max: cfg.MaxShards, target: cfg.TargetUtil, schedule: sched}
}

// observe feeds one settled-round observation: rounds is the total fleet
// round count, loads the Fleet.Loads() snapshot. It returns the shard
// count to resize to (clamped to the bounds) and the reason when a resize
// is due. An unfired schedule entry fires first and suppresses the load
// policy; the load policy itself resizes one shard at a time through the
// grow or shrink hysteresis. Growth and shrink cannot ping-pong each
// other: a grow fires at util above target, and the shrink test asks
// whether the demand fits within target on the capacity left after
// retiring the highest-indexed alive shard — right after a justified grow
// it cannot.
func (p *scalePolicy) observe(rounds int, loads []core.LoadReport) (int, string, bool) {
	if len(p.schedule) > 0 {
		if rounds >= p.schedule[0].AfterRounds {
			st := p.schedule[0]
			p.schedule = p.schedule[1:]
			return p.clamp(st.Shards), "scheduled", true
		}
		return 0, "", false // let the schedule play out before reacting to load
	}
	sum := SumLoads(loads)
	live, retireCap := 0, 0
	for _, r := range loads {
		if r.Alive {
			live++
			retireCap = r.CapacityCores
		}
	}
	if p.min >= p.max || live == 0 {
		return 0, "", false
	}
	shrunk := utilOf(sum.DemandCores, sum.CapacityCores-retireCap)
	saturated := live < p.max && sum.Util > p.target
	grow := p.grow.observe(saturated)
	shrink := p.shrink.observe(!saturated && live > p.min && shrunk <= p.target)
	switch {
	case grow:
		return p.clamp(live + 1), fmt.Sprintf("sustained saturation (util %.2f over %d shards)", sum.Util, live), true
	case shrink:
		return p.clamp(live - 1), fmt.Sprintf("sustained idleness (util %.2f after retiring one of %d shards)", shrunk, live), true
	}
	return 0, "", false
}

// clamp bounds a target shard count to [min, max].
func (p *scalePolicy) clamp(n int) int { return min(max(n, p.min), p.max) }

// autoscaler is the runtime around the policy: a goroutine fed one tick
// per settled fleet round (non-blocking from the serving goroutines), so
// resize — which waits for drained shards' serving loops — never runs on
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
				n, reason, ok := a.policy.observe(rounds, a.fleet.Loads())
				if !ok {
					break
				}
				a.resize(n, reason)
				if len(a.policy.schedule) == 0 && reason != "scheduled" {
					break
				}
			}
		}
	}
}

// resize applies one decision, skipping no-ops.
func (a *autoscaler) resize(n int, reason string) {
	from := a.fleet.liveShards()
	if n == from {
		return
	}
	if a.cfg.OnResize != nil {
		a.cfg.OnResize(from, n, reason)
	}
	if err := a.fleet.resize(n); err != nil && a.cfg.OnError != nil {
		a.cfg.OnError(err)
	}
}

// --- rebalance ---

// RebalanceConfig parametrizes proactive hot-shard rebalancing
// (WithRebalance).
type RebalanceConfig struct {
	// Factor is the imbalance trigger: a shard is hot when its
	// demand-normalized utilization exceeds Factor × the mean utilization
	// of the alive shards. Must exceed 1 (default 1.5).
	Factor float64
}

// shedKey identifies one rebalance LUT warm-handoff: the adopting shard
// and the workload class whose tables were merged into it.
type shedKey struct {
	shard int
	class string
}

// WithRebalance makes hot shards shed sessions to idle peers while the
// fleet keeps its size. resize migrates sessions only off removed shards;
// a hot shard inside a stable fleet — class routing piled one popular
// class onto it — would never shed load. With this option a shard hot for
// controlWindow consecutive settled rounds hands demand-picked sessions
// to the least-utilized peers right after its round settles — the one
// moment every session on the shard sits at a GOP boundary with no encode
// in flight — through core.Server.ExportSession and the GOP-boundary
// handoff a drain uses; the session's bitstream continues bit-identically
// on the peer and OnSessionRebalanced reports each hop.
func WithRebalance(cfg RebalanceConfig) Option {
	return func(o *options) {
		if cfg.Factor == 0 {
			cfg.Factor = 1.5
		}
		if !(cfg.Factor > 1) { // NaN-safe
			o.errs = append(o.errs, fmt.Errorf("serve: rebalance factor %v must exceed 1", cfg.Factor))
			return
		}
		o.rebalance = &cfg
	}
}

// hotShard is the pure hot test for member i of a load snapshot: two or
// more alive members, at least two queued sessions on i (a single session
// is its shard's to serve no matter how heavy it prices — moving it just
// relocates the hot spot), and i's utilization above factor × the alive
// members' mean, which it returns as well.
func hotShard(loads []core.LoadReport, i int, factor float64) (bool, float64) {
	live, mean := 0, 0.0
	for _, r := range loads {
		if r.Alive {
			live++
			mean += r.Util
		}
	}
	if live > 0 {
		mean /= float64(live)
	}
	r := loads[i]
	return live >= 2 && r.Sessions >= 2 && mean > 0 && r.Util > factor*mean, mean
}

// victim is a queued session a hot shard could shed, with its core demand.
type victim struct{ id, demand int }

// shedVictim is the pure victim pick: the index of the queued session
// whose core demand comes closest to the overload gap, ties to the newest
// id (least serving history, least disturbance to the donor's warm
// working set) — so one heavy session goes before many light ones.
// queued must not be empty.
func shedVictim(queued []victim, gap int) int {
	pick := 0
	for i := 1; i < len(queued); i++ {
		di, dp := abs(gap-queued[i].demand), abs(gap-queued[pick].demand)
		if di < dp || (di == dp && queued[i].id > queued[pick].id) {
			pick = i
		}
	}
	return pick
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// maybeRebalance runs the hot-shard check for one settled round of shard
// s, on s's serving goroutine (the fleet's OnRound wire) — the only
// goroutine that touches s.hot. It never blocks on a resize: a shed whose
// window elapsed while a resize or a give-up holds resizeMu stands down
// (it is already rehoming sessions) and its window restarts.
func (f *Fleet) maybeRebalance(s *shardState) {
	cfg := f.opts.rebalance
	if cfg == nil {
		return
	}
	loads := f.Loads()
	hot, mean := hotShard(loads, s.index, cfg.Factor)
	if !s.hot.observe(hot) || !f.resizeMu.TryRLock() {
		return
	}
	defer f.resizeMu.RUnlock()
	f.shedLoad(s, loads[s.index], mean)
}

// shedLoad moves sessions off the donor until its summed core demand is
// back at the fleet-mean utilization, or moving would no longer reduce
// the imbalance. Runs on the donor's serving goroutine between rounds
// with resizeMu read-held, so no target can drain away mid-handoff.
func (f *Fleet) shedLoad(s *shardState, donor core.LoadReport, meanUtil float64) {
	// The overload gap in cores: what the donor carries beyond the
	// fleet-mean utilization of its own capacity. At least one move — the
	// hot trigger already established the imbalance.
	gap := max(donor.DemandCores-int(math.Ceil(meanUtil*float64(donor.CapacityCores))), 1)

	// Snapshot the queued sessions and their demands once; exports below
	// are the only thing settling them mid-loop.
	var queued []victim
	for id := 0; ; id++ {
		st, ok := s.srv.StateOf(id)
		if !ok {
			break
		}
		if st == core.StateQueued {
			queued = append(queued, victim{id: id, demand: s.srv.SessionDemand(id)})
		}
	}

	for gap > 0 && len(queued) > 0 {
		pick := shedVictim(queued, gap)
		v := queued[pick]
		queued = append(queued[:pick], queued[pick+1:]...)

		// The target leads the placement order of a fresh snapshot with the
		// donor taken out: the least-utilized peer.
		loads := f.Loads()
		donorRep := loads[s.index]
		loads[s.index].Alive = false
		order := PlacementOrder(loads, -1, 0, 0)
		if len(order) == 0 {
			return // donor is the only live shard
		}
		ti := order[0]
		// Move only if it strictly reduces the imbalance: the victim on
		// the target must leave it less utilized than the donor is now.
		trep := loads[ti]
		if trep.CapacityCores <= 0 || donorRep.CapacityCores <= 0 ||
			utilOf(trep.DemandCores+v.demand, trep.CapacityCores) >= donorRep.Util {
			return // nobody meaningfully less utilized is left
		}
		snap, err := s.srv.ExportSession(v.id)
		if err != nil {
			continue // settled since the snapshot of queued ids; skip it
		}
		// Warm handoff: the class's warm LUT rides along so the
		// session's first post-rebalance round estimates from the donor's
		// tables instead of cold ones — once per (target, class) for the
		// fleet's lifetime, because the store merge is additive and a hot
		// shard sheds repeatedly: re-merging would pile duplicate history
		// into the target's EWMAs every trigger.
		f.mu.Lock()
		h := shedKey{ti, snap.Class}
		doMerge := !f.shedMerged[h]
		f.shedMerged[h] = true
		target := f.shards[ti]
		f.mu.Unlock()
		if doMerge {
			target.srv.Store().MergeClass(s.srv.Store(), snap.Class)
		}
		if _, ierr := f.adopt(snap, s.index, []int{ti}, Sink.OnSessionRebalanced); ierr != nil {
			// Never strand the session: re-adopt it locally under a fresh
			// id; only if even that fails does it dead-letter.
			if _, herr := s.srv.Import(snap); herr != nil {
				_ = s.srv.FailSession(snap.DonorID, fmt.Errorf(
					"serve: rebalance of session %d off shard %d: %w", snap.DonorID, s.index, ierr))
			}
			continue
		}
		f.mu.Lock()
		f.rebalanced++
		f.mu.Unlock()
		gap -= v.demand
	}
}

// --- placement ---

// defaultPixelsPerCore is the default placement price: how many luma
// pixels per second one core is assumed to transcode. The estimate only
// steers placement — admission re-prices every session from its measured
// LUTs — so the price needs the right order of magnitude, not accuracy.
const defaultPixelsPerCore = 2e6

// PlacementConfig parametrizes demand-aware placement
// (WithDemandPlacement).
type PlacementConfig struct {
	// PixelsPerCore converts a session's luma pixel rate (width × height
	// × FPS) into an estimated core demand: demand = ceil(rate /
	// PixelsPerCore), never below one core (0 → 2e6).
	PixelsPerCore float64
}

// WithDemandPlacement turns on demand-aware placement. The ring alone
// routes by class — good for LUT warmth, blind to weight: a 4K class
// whose arc lands on a 4-core shard would pile demand it can never serve
// while a 32-core peer idles. With this option Submit prices each
// arriving session's pixel rate into an estimated core demand (through
// sched.DemandOf, the same Algorithm-2 line 1 the allocator applies after
// admission), places it by PlacementOrder against every shard's
// LoadReport, and seeds the landing shard's LoadReport with the estimate
// so back-to-back submissions see each other's weight. Without it
// placement is class-home with lowest-utilization fallback.
func WithDemandPlacement(cfg PlacementConfig) Option {
	return func(o *options) {
		if cfg.PixelsPerCore == 0 {
			cfg.PixelsPerCore = defaultPixelsPerCore
		}
		if !(cfg.PixelsPerCore > 0) { // NaN-safe
			o.errs = append(o.errs, fmt.Errorf("serve: placement pixels per core %v", cfg.PixelsPerCore))
			return
		}
		o.placement = &cfg
	}
}

// estimateDemand prices a session's frames into an estimated core demand
// for placement. Returns 0 when demand-aware placement is off. Frame 0 is
// rendered on the submitter's goroutine, so a source that panics on it (a
// FrameSource's only way to report an I/O error) is the submission's
// error, not the caller's crash.
func (f *Fleet) estimateDemand(src core.FrameSource) (demand int, err error) {
	cfg := f.opts.placement
	if cfg == nil {
		return 0, nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: frame 0 of the %s source: panic: %v", src.Class(), r)
		}
	}()
	fr := src.Frame(0)
	if fr == nil {
		return 1, nil
	}
	fps := src.FPS()
	if fps <= 0 {
		fps = f.opts.fps
	}
	// One synthetic thread whose slot utilization is the session's pixel
	// rate over the placement price; DemandOf ceils it into cores exactly
	// as the allocator would.
	rate := float64(fr.Width()*fr.Height()) * fps
	th := sched.Thread{TimeFmax: time.Duration(rate / cfg.PixelsPerCore / fps * float64(time.Second))}
	cores, err := sched.DemandOf(sched.Input{
		Platform: f.proto,
		FPS:      fps,
		Users:    []sched.UserDemand{{User: 0, Threads: []sched.Thread{th}}},
	})
	if err != nil {
		return 1, nil
	}
	return cores[0], nil
}
