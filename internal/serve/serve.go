// Package serve is the multi-platform front door of the transcoding
// service: a Fleet builds one core.Server shard per MPSoC platform
// (uniform via WithShards or heterogeneous via WithPlatforms), routes
// arriving sessions across them by consistent-hashing the session's
// workload class (so each shard's per-class LUTs stay warm) with a
// lowest-utilization fallback — or, with WithDemandPlacement, by
// pricing each session's core demand against the shards' free capacity
// — supervises every shard's serving loop — restarting a shard whose
// loop fails without disturbing the others — and streams telemetry to
// a pluggable Sink instead of accumulating a grow-forever report. The
// paper's scheduler manages one MPSoC; the Fleet is the layer that
// turns many of them into one service (DESIGN.md §5, §7).
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/tenancy"
	"repro/internal/workload"
)

// options collects the functional-option state.
type options struct {
	shards    int
	platforms []*mpsoc.Platform
	fps       float64

	registry  *sched.Registry
	allocator string

	admission core.AdmissionConfig
	timeScale float64
	tenancy   *tenancy.Registry

	autoscale *AutoscaleConfig
	rebalance *RebalanceConfig
	placement *PlacementConfig

	sink       Sink
	extraSinks []Sink
	roundHook  func(shard int, out *core.GOPOutcome)

	checkpointEvery int
	checkpoint      func(shard int, wires []*core.SessionWire)

	lutPath string

	capacity int

	errs []error
}

// Option configures a Fleet.
type Option func(*options)

// WithShards sets the number of shards (default 1), each on its own copy
// of the paper's Xeon E5-2667v4. Overridden by WithPlatforms.
func WithShards(n int) Option {
	return func(o *options) {
		if n < 1 {
			o.errs = append(o.errs, fmt.Errorf("serve: %d shards", n))
			return
		}
		o.shards = n
	}
}

// WithPlatforms gives every shard its own platform — a heterogeneous
// fleet. The slice length defines the shard count.
func WithPlatforms(ps ...*mpsoc.Platform) Option {
	return func(o *options) {
		if len(ps) == 0 {
			o.errs = append(o.errs, errors.New("serve: WithPlatforms with no platforms"))
			return
		}
		for i, p := range ps {
			if p == nil {
				o.errs = append(o.errs, fmt.Errorf("serve: nil platform for shard %d", i))
				return
			}
		}
		o.platforms = ps
	}
}

// WithFPS sets the service frame rate (default 24).
func WithFPS(fps float64) Option {
	return func(o *options) { o.fps = fps }
}

// WithAllocator selects the stage-D2 policy by registry name for every
// shard (default sched.NameContentAware).
func WithAllocator(name string) Option {
	return func(o *options) { o.allocator = name }
}

// WithRegistry resolves allocator names against r instead of
// sched.Default.
func WithRegistry(r *sched.Registry) Option {
	return func(o *options) {
		if r == nil {
			o.errs = append(o.errs, errors.New("serve: nil registry"))
			return
		}
		o.registry = r
	}
}

// WithAdmission enables/configures the overload admission ladder on
// every shard.
func WithAdmission(cfg core.AdmissionConfig) Option {
	return func(o *options) { o.admission = cfg }
}

// WithTenancy installs a tenant registry as the fleet's QoS policy
// (DESIGN.md §9): SubmitWith charges the submitting tenant's token
// bucket (over-rate submissions fail with tenancy.ErrRateLimited) and
// resolves its default priority class, and every shard's allocator
// apportions its platform's cores across the tenants it is serving in
// proportion to their registry weights before the per-session solve.
// Without the option every session belongs to the default tenant and
// the fleet behaves exactly as before.
func WithTenancy(reg *tenancy.Registry) Option {
	return func(o *options) {
		if reg == nil {
			o.errs = append(o.errs, errors.New("serve: nil tenancy registry"))
			return
		}
		o.tenancy = reg
	}
}

// WithCalibration once switched the shards' LUT feedback on; every shard
// now always learns, and the option does nothing.
//
// Deprecated: inert; it goes in ROADMAP item 3(g).
func WithCalibration(cfg core.CalibrationConfig) Option {
	return func(*options) {}
}

// WithTimeScale sets the modelled-work-to-platform time factor (see
// core.ServerConfig.TimeScale).
func WithTimeScale(scale float64) Option {
	return func(o *options) { o.timeScale = scale }
}

// WithSink streams the fleet's telemetry to s (see Sink for the delivery
// contract). The fleet's own Report does not depend on it: that is read
// from the shards' ledgers.
func WithSink(s Sink) Option {
	return func(o *options) { o.sink = s }
}

// WithMetrics streams the fleet's telemetry to an additional sink
// alongside WithSink — the wiring point for observability exporters
// (internal/metrics implements Sink but serve cannot import it without a
// cycle, so the option takes the interface). May be given more than
// once; every sink sees every event, the WithSink sink first, under the
// same serialized delivery contract.
func WithMetrics(s Sink) Option {
	return func(o *options) {
		if s == nil {
			o.errs = append(o.errs, errors.New("serve: nil metrics sink"))
			return
		}
		o.extraSinks = append(o.extraSinks, s)
	}
}

// WithRoundHook invokes fn after every settled shard round (after the
// sink saw the round's events), from that shard's serving goroutine. The
// hook may Submit sessions or Close the fleet — it is how churn-driven
// callers feed arrivals — but must not call serving methods.
func WithRoundHook(fn func(shard int, out *core.GOPOutcome)) Option {
	return func(o *options) { o.roundHook = fn }
}

// WithLUTStore persists the fleet's workload LUTs at path: if the file
// exists its store seeds every shard (a restarted fleet estimates from
// warm state), and a clean Run saves the merged shard stores back
// atomically. A missing file is not an error — the first run starts cold
// and creates it.
func WithLUTStore(path string) Option {
	return func(o *options) { o.lutPath = path }
}

// WithShardCapacity bounds each shard's live-session count for routing:
// a session whose home shard already holds n live sessions is routed to
// the least-loaded shard instead (0 = unbounded, the default — routing
// falls back only when a shard refuses the submission outright).
func WithShardCapacity(n int) Option {
	return func(o *options) { o.capacity = n }
}

// maxRestarts bounds how many times one supervise pass restarts a shard's
// failed serving loop before giving the shard up and re-homing its
// sessions.
const maxRestarts = 1

// Fleet is the multi-shard serving front door. Build with New, feed with
// SubmitWith, drive with Run, let WithAutoscale resize it, stop with Close
// (drain) or context cancellation (abort).
//
// Concurrency: SubmitWith, Close, Report, Loads and HomeShard are safe
// from any goroutine; Run must be called once at a time. resize must not
// be called from a round hook or a sink — a shard being drained cannot
// wait for its own serving goroutine — so the autoscaler runs it on its
// own goroutine.
type Fleet struct {
	opts options
	// proto is the first shard's platform; shards added by resize run on
	// copies of it.
	proto *mpsoc.Platform
	// seed is the loaded WithLUTStore snapshot (nil without one); every
	// shard — including ones added later — starts from its own clone.
	seed *workload.Store

	// sinks are the telemetry sinks, in delivery order: the WithSink sink,
	// then each WithMetrics sink. sinkMu serializes delivery fleet-wide
	// (the Sink contract).
	sinks  []Sink
	sinkMu sync.Mutex

	// totalRounds counts settled rounds fleet-wide across the fleet's
	// lifetime — the autoscale schedule's clock.
	totalRounds atomic.Int64

	mu   sync.Mutex
	cond *sync.Cond // signals supervisor-count changes to Run
	ring *hashRing
	// shards only ever grows; a removed shard keeps its slot (indices
	// are stable identities in telemetry) with removed set.
	shards []*shardState
	// active counts live supervisor goroutines; Run returns at zero.
	active  int
	running bool
	closed  bool
	runCtx  context.Context
	// scaler is the live Run's autoscale loop (nil without WithAutoscale
	// or between runs); round dispatch ticks it.
	scaler *autoscaler
	// shedMerged records which (target shard, class) LUT warm-handoffs
	// rebalancing already performed, for the fleet's lifetime: the
	// workload store merge is additive, so repeating it on every shed
	// would pile duplicate history into the target's estimates.
	shedMerged map[shedKey]bool
	// rebalanced counts session hops performed by hot-shard rebalancing.
	rebalanced int

	// resizeMu serializes resize calls (a resize blocks until its
	// migrations land; overlapping resizes would fight over victims) and
	// give-up handoffs, and excludes hot-shard sheds: a shed takes the read
	// side with TryRLock and stands down if it cannot, so a shed's target
	// never drains away mid-handoff (DESIGN.md §6, §7).
	resizeMu sync.RWMutex
}

// shardState tracks one shard through the fleet's lifetime. All flags
// are guarded by Fleet.mu.
type shardState struct {
	index int
	srv   *core.Server
	// hot is the shard's rebalance hysteresis, touched only by its serving
	// goroutine (maybeRebalance) and therefore unguarded.
	hot hysteresis
	// dead: the supervisor gave the shard up; routing skips it.
	dead bool
	// draining: a resize is removing the shard; routing skips it, its
	// sessions are being handed to their new home shards.
	draining bool
	// removed: the drain finished; the shard is gone for good.
	removed bool
	// supervising: a supervisor goroutine currently owns the shard's
	// serving loop.
	supervising bool
	// migrated is closed exactly once, when the shard's drain completes
	// (or is abandoned by cancellation) — what resize blocks on.
	migrated chan struct{}
	// The supervisor's side of the shard's report (everything else is the
	// server's own ledger): loop restarts performed and the give-up error.
	restarts int
	err      error
}

// New validates the options and builds the fleet's shards.
func New(opts ...Option) (*Fleet, error) {
	o := options{
		shards:    1,
		fps:       24,
		allocator: sched.NameContentAware,
		registry:  sched.Default,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if len(o.errs) > 0 {
		return nil, errors.Join(o.errs...)
	}
	platforms := o.platforms
	if platforms == nil {
		platforms = make([]*mpsoc.Platform, o.shards)
		for i := range platforms {
			platforms[i] = mpsoc.XeonE5_2667V4()
		}
	}
	n := len(platforms)

	// A persisted LUT store seeds every shard with its own deep copy —
	// shards must not share mutable estimation state, or cross-shard lock
	// contention and a nondeterministic update order would leak in.
	var seed *workload.Store
	if o.lutPath != "" {
		f, err := os.Open(o.lutPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// First run: start cold, Save creates the file.
		case err != nil:
			return nil, fmt.Errorf("serve: open LUT store: %w", err)
		default:
			seed, err = workload.LoadStore(f)
			f.Close()
			if err != nil {
				return nil, err
			}
		}
	}

	if o.autoscale != nil {
		if err := validateAutoscale(o.autoscale, n); err != nil {
			return nil, err
		}
	}

	f := &Fleet{
		opts:       o,
		sinks:      o.extraSinks,
		proto:      platforms[0],
		seed:       seed,
		ring:       newHashRing(seqMembers(n), RingReplicas),
		shedMerged: make(map[shedKey]bool),
	}
	if o.sink != nil {
		f.sinks = append([]Sink{o.sink}, f.sinks...)
	}
	f.cond = sync.NewCond(&f.mu)
	for i := 0; i < n; i++ {
		shard, err := f.newShardState(i, platforms[i])
		if err != nil {
			return nil, err
		}
		f.shards = append(f.shards, shard)
	}
	return f, nil
}

// newShardState builds one shard: a core.Server on the given platform
// with the fleet's configuration and the telemetry hooks wired to the
// sink dispatch.
func (f *Fleet) newShardState(index int, platform *mpsoc.Platform) (*shardState, error) {
	alloc, err := f.opts.registry.MustLookup(f.opts.allocator)
	if err != nil {
		return nil, err
	}
	var store *workload.Store
	if f.seed != nil {
		store = f.seed.Clone()
	}
	shard := &shardState{index: index, migrated: make(chan struct{})}
	srv, err := core.NewServer(core.ServerConfig{
		Platform:  platform,
		FPS:       f.opts.fps,
		Allocator: core.AllocatorFunc(alloc),
		TimeScale: f.opts.timeScale,
		Admission: f.opts.admission,
		Tenancy:   f.opts.tenancy,
		Store:     store,
		OnRound: func(out *core.GOPOutcome) {
			f.deliverRound(shard, out)
			// Control loop: the round boundary is the safe point for a hot
			// shard to shed (every session at a GOP boundary, this very
			// goroutine the only one serving them), and the tick feeding
			// the autoscaler's own goroutine.
			f.maybeRebalance(shard)
			f.tickRound()
			if f.opts.roundHook != nil {
				f.opts.roundHook(shard.index, out)
			}
			if f.opts.checkpoint != nil && out.Round%f.opts.checkpointEvery == 0 {
				if wires, err := shard.srv.CheckpointSessions(); err == nil {
					f.opts.checkpoint(shard.index, wires)
				}
			}
		},
		OnSessionState: func(id int, state core.SessionState, err error) {
			f.deliver(func(s Sink) {
				s.OnSessionStateChange(SessionEvent{Shard: shard.index, Session: id, State: state, Err: err})
			})
		},
	})
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d: %w", index, err)
	}
	shard.srv = srv
	return shard, nil
}

// clonePlatform copies a platform so shards never share mutable state.
func clonePlatform(p *mpsoc.Platform) *mpsoc.Platform {
	cp := *p
	cp.Levels = append([]mpsoc.FreqLevel(nil), p.Levels...)
	return &cp
}

// routable reports whether the shard accepts routed sessions.
func (s *shardState) routable() bool { return !s.dead && !s.draining && !s.removed }

// liveCountLocked counts the routable shards. Callers hold f.mu.
func (f *Fleet) liveCountLocked() int {
	n := 0
	for _, s := range f.shards {
		if s.routable() {
			n++
		}
	}
	return n
}

// rebuildRingLocked rebuilds the consistent-hash ring over the routable
// shards. Callers hold f.mu.
func (f *Fleet) rebuildRingLocked() {
	var members []int
	for _, s := range f.shards {
		if s.routable() {
			members = append(members, s.index)
		}
	}
	f.ring = newHashRing(members, RingReplicas)
}

// liveShards returns the number of live (routable) shards.
func (f *Fleet) liveShards() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.liveCountLocked()
}

// HomeShard returns the shard the consistent-hash ring currently assigns
// a workload class to (before load-based fallback); -1 when no shard is
// routable.
func (f *Fleet) HomeShard(class string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.shardFor(class)
}

// Loads reports every shard's load report, indexed by shard index. A
// shard that is gone (removed, draining or given up) reports the zero
// report with Alive false — dead shards are explicit, and every consumer
// (autoscale, rebalance, tests) excludes them from fleet means instead of
// special-casing a sentinel. This is the window into per-shard load
// without reaching into shard internals.
func (f *Fleet) Loads() []core.LoadReport {
	f.mu.Lock()
	shards := append([]*shardState(nil), f.shards...)
	routable := make([]bool, len(shards))
	for i, s := range shards {
		routable[i] = s.routable()
	}
	f.mu.Unlock()
	out := make([]core.LoadReport, len(shards))
	for i, s := range shards {
		if !routable[i] {
			continue // zero report, Alive false
		}
		out[i] = s.srv.LoadReport()
	}
	return out
}

// Placement identifies where a submitted session landed.
type Placement struct {
	// Shard is the index of the shard serving the session.
	Shard int
	// Session is the shard-local session (ids are shard-local too).
	Session *core.Session
}

// SubmitRequest is the one submission envelope of the service front
// door: the video source, its session configuration, and the QoS
// identity — which tenant the session bills to and what priority class
// it competes at. The zero values mean "the default tenant, best
// effort".
type SubmitRequest struct {
	// Source is the session's frame source (required).
	Source core.FrameSource
	// Config is the session's encoding configuration.
	Config core.SessionConfig
	// Tenant is the submitting tenant's id ("" or tenancy.DefaultID for
	// the default tenant). With WithTenancy, admission is charged to
	// this tenant's token bucket and its registry weight shapes its
	// core share on every shard.
	Tenant string
	// Priority is the session's priority class (0 = best effort; higher
	// admits first and preempts lower classes under overload). With
	// WithTenancy, 0 is resolved to the tenant's registered default.
	Priority int
}

// SubmitWith routes a session to its class's home shard, falling back to
// the lowest-utilization shard when the home shard is saturated
// (WithShardCapacity), dead, draining, or refuses the submission. With
// WithDemandPlacement the session's estimated core demand steers the
// order too (see PlacementOrder) and rides into the landing shard's
// LoadReport as the session's demand hint. With WithTenancy the
// request's tenant is charged one token first — an over-rate tenant's
// submission fails with tenancy.ErrRateLimited before any shard is
// touched — and the session competes at its resolved priority on the
// landing shard. Safe from any goroutine, including round hooks — but
// not from Sink methods, which run under the sink dispatch lock that
// SubmitWith's own state notification needs (see the Sink contract).
// Fails when every shard refuses.
func (f *Fleet) SubmitWith(req SubmitRequest) (Placement, error) {
	src := req.Source
	if src == nil {
		return Placement{}, errors.New("serve: nil frame source")
	}
	priority := req.Priority
	if f.opts.tenancy != nil {
		if err := f.opts.tenancy.Admit(req.Tenant); err != nil {
			return Placement{}, fmt.Errorf("serve: submit: %w", err)
		}
		priority = f.opts.tenancy.Priority(req.Tenant, req.Priority)
	}
	cfg := req.Config
	demand, err := f.estimateDemand(src)
	if err != nil {
		return Placement{}, fmt.Errorf("serve: submit: %w", err)
	}
	if demand > 0 && cfg.DemandHint == 0 {
		cfg.DemandHint = demand
	}
	f.mu.Lock()
	home := f.ring.shardFor(src.Class())
	f.mu.Unlock()
	opts := core.SubmitOptions{Tenant: req.Tenant, Priority: priority}
	var lastErr error
	for _, si := range PlacementOrder(f.Loads(), home, demand, f.opts.capacity) {
		sess, err := f.shardAt(si).srv.Submit(src, cfg, opts)
		if err == nil {
			e := PlacementEvent{
				Shard:       si,
				Home:        home,
				Session:     sess.ID,
				Class:       src.Class(),
				DemandCores: demand,
				Tenant:      req.Tenant,
				Priority:    priority,
			}
			if e.DemandCores < 1 {
				e.DemandCores = 1
			}
			f.deliver(func(s Sink) { s.OnSessionPlaced(e) })
			return Placement{Shard: si, Session: sess}, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("serve: no live shard")
	}
	return Placement{}, fmt.Errorf("serve: submit: %w", lastErr)
}

// shardAt returns the shard with the given index.
func (f *Fleet) shardAt(i int) *shardState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shards[i]
}

// Close closes every shard's arrival queue: no further SubmitWith succeeds
// and Run returns once the submitted sessions drain. Shards added by a
// later resize are born closed. Safe to call from any goroutine, more
// than once.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	shards := append([]*shardState(nil), f.shards...)
	f.mu.Unlock()
	for _, s := range shards {
		s.srv.Close()
	}
}

// ShardReport is one shard's part of a fleet Report.
type ShardReport struct {
	Shard int
	// Report is the shard server's ledger (core.Server.Report): cumulative
	// over the server's life, so it spans supervisor restarts unaided.
	Report *core.ServiceReport
	// Restarts counts serving-loop restarts the supervisor performed.
	Restarts int
	// Err is the terminal serving error of a shard that was given up (nil
	// for a clean drain, a removal, or cancellation).
	Err error
}

// Report is the fleet-wide view: every shard's report (indexed by shard,
// retired slots included) and their sums. Fleet.Report reads it from the
// shards' ledgers; RingSink.Report derives the same type from the event
// stream.
type Report struct {
	Shards []ShardReport
	// Fleet-wide aggregates over all shards. Submitted counts unique
	// sessions: one that migrated between shards is submitted once, no
	// matter how many shards served it.
	Rounds    int
	Submitted int
	Completed int
	Rejected  int
	Failed    int
	// Migrated counts session migration hops (resize drains and hot-shard
	// rebalances); Rebalanced counts the subset performed by WithRebalance.
	Migrated      int
	Rebalanced    int
	FramesEncoded int
	GOPReports    int
	Energy        mpsoc.Totals
}

// Run supervises every shard's serving loop until all drain (after
// Close), the context is cancelled, or the shards die. A shard whose
// loop returns an error is restarted in place — its sessions and LUTs
// survive, the other shards never notice — up to maxRestarts times;
// past that the shard is given up: it leaves the ring, its queue closes,
// and its sessions re-home onto the other shards the way a resize drain
// hands them over (a session no shard will take fails, and the sink sees
// the failure). resize adds supervisors for grown shards and retires
// the drained ones mid-flight. Run returns the aggregated report with
// ctx.Err() after cancellation, an error when every shard died, and nil
// otherwise (check ShardReport.Err for partial failures). With
// WithLUTStore, a Run that ends without cancellation saves the merged
// LUT store.
func (f *Fleet) Run(ctx context.Context) (*Report, error) {
	f.mu.Lock()
	if f.running {
		f.mu.Unlock()
		return nil, errors.New("serve: Run already active")
	}
	f.running = true
	f.runCtx = ctx
	if f.opts.autoscale != nil {
		f.scaler = newAutoscaler(f, *f.opts.autoscale)
	}
	scaler := f.scaler
	for _, s := range f.shards {
		if s.routable() && !s.supervising {
			f.startSupervisorLocked(ctx, s)
		}
	}
	for f.active > 0 {
		f.cond.Wait()
	}
	f.running = false
	f.runCtx = nil
	f.scaler = nil
	f.mu.Unlock()
	if scaler != nil {
		// Stop the scaling loop and let an in-flight resize land before
		// the report is snapshotted.
		scaler.stop()
	}
	rep := f.Report()
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if f.opts.lutPath != "" {
		if err := f.saveLUTs(); err != nil {
			return rep, err
		}
	}
	// "Every shard died" is judged over the shards that could still
	// serve: slots retired by a resize drain don't count either way, even
	// one whose loop gave up as the drain took it.
	f.mu.Lock()
	serving, deadShards, first := 0, 0, error(nil)
	for _, s := range f.shards {
		if s.removed {
			continue
		}
		serving++
		if s.err != nil {
			deadShards++
			if first == nil {
				first = s.err
			}
		}
	}
	f.mu.Unlock()
	if deadShards == serving && serving > 0 {
		return rep, fmt.Errorf("serve: all %d serving shards failed, first: %w", deadShards, first)
	}
	return rep, nil
}

// Report builds the fleet-wide view from the shards' ledgers, at any
// time: each shard's core.Server.Report beside what its supervisor did,
// and the sums over shards. Safe from any goroutine, including while Run
// is serving; every counter is cumulative over the fleet's life. Run
// returns exactly this.
func (f *Fleet) Report() *Report {
	f.mu.Lock()
	shards := make([]ShardReport, len(f.shards))
	srvs := make([]*core.Server, len(f.shards))
	for i, s := range f.shards {
		shards[i] = ShardReport{
			Shard:    i,
			Restarts: s.restarts,
			Err:      s.err,
		}
		srvs[i] = s.srv
	}
	rebalanced := f.rebalanced
	f.mu.Unlock()
	for i, srv := range srvs {
		shards[i].Report = srv.Report()
	}
	return sumShards(shards, rebalanced)
}

// sumShards completes a Report over the given per-shard reports — the
// one place the fleet-wide sums are taken, so the ledger view and the
// event-derived view add up the same way.
func sumShards(shards []ShardReport, rebalanced int) *Report {
	rep := &Report{Shards: shards, Rebalanced: rebalanced}
	for _, sr := range shards {
		rep.Rounds += sr.Report.Rounds
		rep.Submitted += sr.Report.Submitted - sr.Report.Imported
		rep.Completed += len(sr.Report.Completed)
		rep.Rejected += len(sr.Report.Rejected)
		rep.Failed += len(sr.Report.Failed)
		rep.Migrated += len(sr.Report.Migrated)
		rep.FramesEncoded += sr.Report.FramesEncoded
		rep.GOPReports += sr.Report.GOPReports
		rep.Energy.Merge(sr.Report.Energy)
	}
	return rep
}

// startSupervisorLocked launches the supervisor goroutine for one shard.
// Callers hold f.mu.
func (f *Fleet) startSupervisorLocked(ctx context.Context, s *shardState) {
	s.supervising = true
	f.active++
	go func() {
		for {
			f.supervise(ctx, s)
			f.mu.Lock()
			// Exit when the shard is finished — but not while it is
			// draining un-removed (the next supervise pass completes the
			// drain), and not when sessions slipped into the queue while
			// the loop was stopping (an Import racing a clean close; the
			// next pass serves them).
			exit := s.dead || s.removed || ctx.Err() != nil ||
				(!s.draining && s.srv.LoadReport().Sessions == 0)
			release := exit && s.draining && !s.removed
			if exit {
				s.supervising = false
				f.active--
				f.cond.Broadcast()
			}
			f.mu.Unlock()
			if release {
				// An abnormal exit (give-up, cancellation) on a draining
				// shard: unblock the resize waiting for the drain.
				f.markRemoved(s)
			}
			if exit {
				return
			}
		}
	}()
}

// supervise drives one shard's serving loop with restart-on-error, drain
// handling and the give-up. Each pass has its own budget of maxRestarts
// restarts; the shard's report counts them all.
func (f *Fleet) supervise(ctx context.Context, s *shardState) {
	for restarts := 0; ; restarts++ {
		_, err := s.srv.Run(ctx)
		if f.isDrainingShard(s) {
			// A resize is removing this shard: migrate its sessions and
			// retire it, whatever the loop returned.
			f.finishDrain(s, ctx)
			return
		}
		// Cancellation is fleet-wide, not a shard fault.
		if err == nil || ctx.Err() != nil {
			return
		}
		if restarts < maxRestarts {
			f.mu.Lock()
			s.restarts++
			f.mu.Unlock()
			continue
		}
		f.giveUp(ctx, s, fmt.Errorf("serve: shard %d gave up after %d restarts: %w", s.index, restarts, err))
		return
	}
}

// giveUp retires a shard whose serving loop failed past its restart
// budget, the way a resize victim leaves: off the ring first (so HomeShard
// and MergeLUTs stop naming it), then its sessions re-home through rehome.
// Every one of them sits at a GOP boundary — a round-level error is raised
// before any encode starts. A shard a resize already marked for draining
// books the cause too, then finishes that drain instead (it leaves the
// fleet removed, so Run's verdict does not count it). The handoff holds
// resizeMu's write side,
// blocking, because a give-up must not be skipped: that keeps targets from
// draining away mid-handoff, and it serializes give-ups with each other,
// so a dying shard's export sees every session another give-up landed on
// it. It cannot wait on itself: a dead shard is never routable, so never a
// resize victim.
func (f *Fleet) giveUp(ctx context.Context, s *shardState, err error) {
	f.mu.Lock()
	draining := s.draining
	s.err = err
	if !draining {
		s.dead = true
		f.rebuildRingLocked()
	}
	f.mu.Unlock()
	if draining {
		f.finishDrain(s, ctx)
		return
	}
	s.srv.Close()
	f.resizeMu.Lock()
	defer f.resizeMu.Unlock()
	f.rehome(s, err)
}

// isDrainingShard reads the shard's draining flag.
func (f *Fleet) isDrainingShard(s *shardState) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return s.draining
}

// markRemoved retires a draining shard, closing its migrated channel
// exactly once (what resize blocks on).
func (f *Fleet) markRemoved(s *shardState) {
	f.mu.Lock()
	already := s.removed
	s.removed = true
	f.mu.Unlock()
	if !already {
		close(s.migrated)
	}
}

// finishDrain completes a shard's removal: its sessions re-home (rehome)
// and the shard retires. Runs on the shard's supervisor goroutine while
// the fleet is running, or on the resize caller's goroutine otherwise —
// never both — and either way under the resize's hold of resizeMu.
func (f *Fleet) finishDrain(s *shardState, ctx context.Context) {
	if ctx != nil && ctx.Err() != nil {
		// The fleet is being cancelled: nobody is left to serve a
		// migrated session, so just retire the shard.
		f.markRemoved(s)
		return
	}
	f.rehome(s, nil)

	// The draining shard already left the routable set when the resize
	// marked it, so the live count needs no adjustment.
	f.mu.Lock()
	live := f.liveCountLocked()
	f.mu.Unlock()
	f.deliver(func(sink Sink) { sink.OnShardRemoved(ShardEvent{Shard: s.index, Live: live}) })
	f.markRemoved(s)
}

// rehome hands every session of a shard that is leaving the fleet — a
// resize victim or a given-up shard, its loop stopped — to the shards that
// remain: export the sessions at the GOP boundary the loop stopped on,
// hand each class's LUT to the class's new home (so the first
// post-migration round estimates warm), adopt each snapshot home first,
// and dead-letter what no shard takes. cause is the give-up's error (nil
// for a drain); it rides on every dead-lettered session. With the ladder
// off it also keeps a snapshot off every shard whose whole platform is
// below the session's core demand: such a session is what took its shard
// down ("no user admitted"), and it would take an equal shard down next.
// With the ladder on no session can do that, so the target's ladder
// serves it degraded instead. The caller holds resizeMu, so no target
// drains away mid-handoff.
func (f *Fleet) rehome(s *shardState, cause error) {
	guard := cause != nil && !f.opts.admission.Enabled
	snaps, err := s.srv.ExportSessions()
	if err != nil {
		// Unexportable sessions (mid-GOP strays after a cancelled Run, or
		// a racing serving loop): fail them loudly rather than stranding
		// them in a shard that is going away. Abort refuses only a loop
		// that is still running, which nothing here could stop either.
		_, _ = s.srv.Abort(fmt.Errorf("serve: shard %d drain: %w", s.index, err))
	}
	donor := s.srv.Store()
	for _, class := range donor.Classes() {
		if ti := f.HomeShard(class); ti >= 0 {
			f.shardAt(ti).srv.Store().MergeClass(donor, class)
		}
	}
	for _, snap := range snaps {
		loads := f.Loads()
		for i := range loads {
			if guard && loads[i].CapacityCores < snap.Demand {
				loads[i].Alive = false
			}
		}
		order := PlacementOrder(loads, f.HomeShard(snap.Class), 0, f.opts.capacity)
		if _, err := f.adopt(snap, s.index, order, Sink.OnSessionMigrated); err != nil {
			lost := fmt.Errorf("serve: no shard would adopt session %d migrating off shard %d", snap.DonorID, s.index)
			if cause != nil {
				lost = fmt.Errorf("%w: %w", lost, cause)
			}
			_ = s.srv.FailSession(snap.DonorID, lost)
		}
	}
}

// adopt lands a session snapshot on the first of the candidate shards
// that will import it: the one migration step a resize drain, a give-up,
// a hot-shard shed and a cross-process re-import share. from is the donor
// shard (-1 when the donor is outside this fleet; never a landing spot
// itself), and report is the Sink method the hop is announced through
// (Sink.OnSessionMigrated or Sink.OnSessionRebalanced), after the
// target's StateQueued event. A target whose supervisor already returned
// — a closed fleet winds shards down as they empty — gets a fresh one, so
// the adopted session is served. On failure the snapshot is still the
// caller's to place or dead-letter.
func (f *Fleet) adopt(snap *core.SessionSnapshot, from int, candidates []int, report func(Sink, MigrationEvent)) (Placement, error) {
	lastErr := errors.New("serve: no live shard")
	for _, ti := range candidates {
		if ti == from {
			continue
		}
		t := f.shardAt(ti)
		sess, err := t.srv.Import(snap)
		if err != nil {
			lastErr = err
			continue
		}
		e := MigrationEvent{
			FromShard:   from,
			FromSession: snap.DonorID,
			ToShard:     ti,
			ToSession:   sess.ID,
			Class:       snap.Class,
			Frame:       snap.Frame,
			Tenant:      snap.Tenant,
		}
		f.deliver(func(s Sink) { report(s, e) })
		f.mu.Lock()
		if f.running && t.routable() && !t.supervising {
			f.startSupervisorLocked(f.runCtx, t)
		}
		f.mu.Unlock()
		return Placement{Shard: ti, Session: sess}, nil
	}
	return Placement{}, lastErr
}

// resize grows or shrinks the fleet to n live shards, while Run is live
// or between runs. Growing builds fresh shards on copies of the fleet's
// prototype platform and splices them into the consistent-hash ring:
// only the classes whose arc the new shards take over move home (their
// LUT state is copied across so they stay warm); everything else keeps
// serving undisturbed, and new supervisors join a live Run. Shrinking
// removes the highest-indexed live shards: each victim leaves the ring
// (new arrivals route around it), drains at the next GOP boundary, and
// hands its live sessions — with their admission-ladder state and their
// classes' warm LUTs — to their new home shards; resize returns
// once every victim's sessions have landed. Zero frames are lost and a
// migrated session's bitstream continues bit-identically.
//
// resize must not be called from a round hook or a sink: draining a
// shard waits for that shard's serving goroutine, which is the goroutine
// hooks run on. Call it from its own goroutine (an autoscaler loop).
func (f *Fleet) resize(n int) error {
	if n < 1 {
		return fmt.Errorf("serve: resize to %d shards", n)
	}
	f.resizeMu.Lock()
	defer f.resizeMu.Unlock()

	f.mu.Lock()
	var live []*shardState
	for _, s := range f.shards {
		if s.routable() {
			live = append(live, s)
		}
	}
	delta := n - len(live)
	if delta == 0 {
		f.mu.Unlock()
		return nil
	}

	if delta > 0 {
		start := len(f.shards)
		added := make([]*shardState, 0, delta)
		for i := 0; i < delta; i++ {
			st, err := f.newShardState(start+i, clonePlatform(f.proto))
			if err != nil {
				f.mu.Unlock()
				return err
			}
			added = append(added, st)
		}
		f.shards = append(f.shards, added...)
		f.rebuildRingLocked()
		// Warm handoff for the classes that moved: copy each such class's
		// LUT from its old home into the new shard, so routing's promise —
		// resizes keep the LUTs warm — holds for the moved classes too.
		for _, st := range added {
			for _, os := range live {
				for _, class := range os.srv.Store().Classes() {
					if f.ring.shardFor(class) == st.index {
						st.srv.Store().MergeClass(os.srv.Store(), class)
					}
				}
			}
		}
		closed := f.closed
		if f.running {
			for _, st := range added {
				f.startSupervisorLocked(f.runCtx, st)
			}
		}
		liveN := f.liveCountLocked()
		f.mu.Unlock()
		if closed {
			for _, st := range added {
				st.srv.Close()
			}
		}
		for _, st := range added {
			e := ShardEvent{Shard: st.index, Live: liveN}
			f.deliver(func(s Sink) { s.OnShardAdded(e) })
		}
		return nil
	}

	// Shrink: retire the highest-indexed live shards.
	sort.Slice(live, func(a, b int) bool { return live[a].index > live[b].index })
	victims := live[:-delta]
	for _, v := range victims {
		v.draining = true
	}
	f.rebuildRingLocked()
	supervised := make(map[*shardState]bool, len(victims))
	for _, v := range victims {
		supervised[v] = v.supervising
	}
	f.mu.Unlock()

	for _, v := range victims {
		// Seal the victim against stragglers (migration Imports bypass
		// Close) and stop its loop at the next GOP boundary.
		v.srv.Close()
		v.srv.Drain()
		if supervised[v] {
			// The victim's supervisor completes the drain and migration.
			<-v.migrated
		} else {
			f.finishDrain(v, nil)
		}
	}
	return nil
}

// saveLUTs merges every shard's workload store and writes it atomically
// to the WithLUTStore path. Without a configured path it is a no-op.
func (f *Fleet) saveLUTs() error {
	if f.opts.lutPath == "" {
		return nil
	}
	merged := workload.NewStore()
	f.mu.Lock()
	shards := append([]*shardState(nil), f.shards...)
	f.mu.Unlock()
	for _, s := range shards {
		merged.Merge(s.srv.Store())
	}
	tmp, err := os.CreateTemp(filepath.Dir(f.opts.lutPath), ".luts-*")
	if err != nil {
		return fmt.Errorf("serve: save LUT store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := merged.Save(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: save LUT store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: save LUT store: %w", err)
	}
	if err := os.Rename(tmp.Name(), f.opts.lutPath); err != nil {
		return fmt.Errorf("serve: save LUT store: %w", err)
	}
	return nil
}

// deliver hands each of the fleet's sinks in turn to fn under the
// fleet-wide dispatch lock — the Sink contract's "no two methods run
// concurrently". A fleet without a sink delivers nothing.
func (f *Fleet) deliver(fn func(Sink)) {
	if len(f.sinks) == 0 {
		return
	}
	f.sinkMu.Lock()
	defer f.sinkMu.Unlock()
	for _, s := range f.sinks {
		fn(s)
	}
}

// deliverRound delivers a settled round in one lock hold: per-session
// GOPs in ascending id, then the round metrics carrying the shard's load
// report as of the settlement.
func (f *Fleet) deliverRound(s *shardState, out *core.GOPOutcome) {
	if len(f.sinks) == 0 {
		return
	}
	ids := make([]int, 0, len(out.GOPs))
	for id := range out.GOPs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	round := RoundEvent{Shard: s.index, Outcome: out, Load: s.srv.LoadReport()}
	f.deliver(func(sink Sink) {
		for _, id := range ids {
			sink.OnGOP(GOPEvent{Shard: s.index, Session: id, Round: out.Round, GOP: out.GOPs[id]})
		}
		sink.OnRoundMetrics(round)
	})
}

// tickRound advances the fleet-wide settled-round counter and feeds the
// live autoscale loop. Called from serving goroutines (the OnRound wire).
func (f *Fleet) tickRound() {
	rounds := int(f.totalRounds.Add(1))
	f.mu.Lock()
	sc := f.scaler
	f.mu.Unlock()
	if sc != nil {
		sc.tick(rounds)
	}
}
