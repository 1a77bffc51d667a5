package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/tenancy"
	"repro/internal/workload"
)

// AllocatorFunc is the pluggable stage-D2 policy; sched.Default holds
// Algorithm 2 and the baseline of [19] by name.
type AllocatorFunc func(sched.Input) (*sched.Result, error)

// CalibrationConfig once switched the server's LUT feedback on. The
// server now always feeds each served tile back, once, in its settle
// order, and nothing reads this type.
//
// Deprecated: inert; it goes with ServerConfig.Calibration (ROADMAP item
// 3(g)).
type CalibrationConfig struct {
	// Enabled is ignored.
	Enabled bool
}

// ServerConfig parametrizes the multi-user serving loop.
type ServerConfig struct {
	Platform *mpsoc.Platform
	// FPS is the service frame rate (slot = 1/FPS).
	FPS float64
	// Allocator is the thread allocation + DVFS policy. Nil selects
	// Algorithm 2.
	Allocator AllocatorFunc
	// TimeScale maps stage-D1 *estimates* onto the simulated platform's
	// time base: each per-tile LUT prediction is multiplied by this
	// factor as it is handed to the allocator, so the scaled value flows
	// into admission, core planning and (through the resulting plans)
	// the slot energy simulation. It does not touch what the LUT stores:
	// modelled work is learned unscaled.
	// The paper measured Kvazaar (2017) on an E5-2667, whose frames cost
	// far more than this codec's modelled work, so experiments set
	// TimeScale so that per-user demand lands in the paper's regime
	// (~1.5–4 cores per user). 0 or 1 disables scaling.
	TimeScale float64
	// Sequential serves admitted sessions one after another, each with its
	// own SessionConfig.Workers budget — the pre-concurrency reference
	// path. In the concurrent serving loop each session's budget instead
	// comes from the cores the allocator assigned to it that round. Encoded
	// output is bit-identical between the two modes (sessions share no
	// order-sensitive state); tests and benchmarks compare against it.
	Sequential bool
	// Calibration is ignored.
	//
	// Deprecated: the server always learns; this field goes in ROADMAP
	// item 3(g).
	Calibration CalibrationConfig
	// Admission enables the overload ladder (see AdmissionConfig). Zero
	// value = disabled: users the allocator cannot fit simply wait.
	Admission AdmissionConfig
	// OnRound, when set, is invoked synchronously from the serving
	// goroutine after every round Run serves. The callback may Submit new
	// sessions or Close the server (the loop picks both up on the next
	// round) but must not call serving methods itself.
	OnRound func(*GOPOutcome)
	// OnSessionState, when set, is invoked on every session lifecycle
	// transition: to StateQueued from the goroutine calling Submit, and to
	// the terminal states from the serving goroutine as rounds settle. err
	// is non-nil only for StateFailed. The callback runs outside the
	// server's lock — it may call Submit, Close, StateOf or LoadReport,
	// but not the serving methods. This is the hook the fleet dispatcher's
	// telemetry sinks (internal/serve) are built on.
	OnSessionState func(id int, state SessionState, err error)
	// Store, when set, seeds the server with a pre-warmed per-class
	// workload LUT store (for example one persisted by a previous service
	// run — see workload.Store.Save/LoadStore) instead of an empty one.
	Store *workload.Store
	// Tenancy, when set, is the tenant registry consulted during stage D2:
	// when live sessions span several tenants, platform cores are first
	// apportioned across the tenants by registry weight and each tenant's
	// sessions are solved on their own core share (admission.go), and a
	// submission's default priority class comes from its tenant's policy.
	// The registry's token buckets are charged at the outer front doors
	// (serve.Fleet, dist.Master), not here — a server never refuses a
	// session the fleet already accepted. Nil means every session belongs
	// to one default tenant with equal weight: the historical behavior.
	Tenancy *tenancy.Registry
}

// SessionState is a session's position in the service lifecycle.
type SessionState int

const (
	// StateQueued covers a submitted session from arrival until a
	// terminal state: it is either waiting for admission or actively
	// being served.
	StateQueued SessionState = iota
	// StateCompleted means every frame of the session's video was served.
	StateCompleted
	// StateRejected means the admission ladder gave up on the session
	// (its queue deadline expired while the platform was saturated).
	StateRejected
	// StateFailed means the session's encode failed; the service dropped
	// it and kept serving the others.
	StateFailed
	// StateMigrated means the session left this shard through
	// ExportSessions (fleet resize/drain): it is terminal *for this
	// shard* — the session lives on under a new id on the shard that
	// imported it.
	StateMigrated
)

// String names the state.
func (s SessionState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateCompleted:
		return "completed"
	case StateRejected:
		return "rejected"
	case StateFailed:
		return "failed"
	case StateMigrated:
		return "migrated"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// sessionRecord is the server-side wrapper around a session: lifecycle
// state and admission-ladder bookkeeping. Session internals are touched
// only by the serving goroutine; record fields are guarded by Server.mu.
type sessionRecord struct {
	sess *Session

	state SessionState
	// err is the terminal error of a StateFailed session.
	err error
	// rung is the highest admission-ladder rung applied (see admission.go).
	rung int
	// waited counts consecutive rounds the session was refused admission
	// after the ladder ran out of degradation rungs.
	waited int
	// skipRound marks a rate-halved session (Session.rateHalved) to sit out
	// the next round: set after each GOP it is served, cleared when the
	// skip is taken, so the session encodes every other GOP.
	skipRound bool
	// imported marks a session adopted from another shard (Server.Import)
	// rather than submitted here — the fleet subtracts these when it
	// counts unique sessions across shards.
	imported bool
	// headroom counts consecutive rounds the platform had spare
	// allocation capacity for this rate-halved session (rate-rung
	// recovery, AdmissionConfig.RecoverAfterRounds). Reset to zero by any
	// round without headroom — the hysteresis that prevents flapping.
	headroom int
	// lastDemand is the session's core demand the last round it competed
	// (sched.Result.DemandCores) — the headroom bar its recovery must
	// clear.
	lastDemand int
	// tenant is the owning tenant's id ("" = the default tenant). It
	// decides which weighted core share the session competes in.
	tenant string
	// priority is the session's effective QoS priority class (0 = best
	// effort; higher admits first and preempts — see admission.go).
	priority int
}

// Server serves many transcoding sessions on one platform: each GOP it
// collects the sessions' workload estimates (stage D1), allocates threads
// to cores and sets frequencies (stage D2), simulates the slot energy, and
// encodes the admitted sessions' frames — concurrently, one goroutine per
// admitted session, each budgeted with the tile parallelism its allocation
// planned (DESIGN.md §4).
//
// Concurrency contract: Submit, Close, Store, StateOf, LoadReport and
// Report are safe to call from any goroutine, at any time — including
// while Run is serving. The serving methods themselves (Run, ServeGOP,
// ServeAll) must be driven by a single goroutine at a
// time; Run enforces this by failing when a Run is already active.
type Server struct {
	cfg   ServerConfig
	store *workload.Store

	mu      sync.Mutex
	records []*sessionRecord
	closed  bool
	running bool
	// draining makes Run return at the next GOP boundary with the
	// sessions still queued (see Drain/ExportSessions in migrate.go).
	draining bool
	// arrival wakes an idle Run loop when Submit or Close changes what
	// there is to do.
	arrival chan struct{}
	// The ledger: what every settled round delivered, cumulative over the
	// server's life. With the records' lifecycle states it is everything
	// Report snapshots — the one place these counts are kept.
	rounds     int
	frames     int
	gopReports int
	energy     mpsoc.Totals

	// estGroups pools the per-class key→estimate maps resolveEstimates
	// reuses each round (bounded by the number of workload classes).
	// Serving-goroutine-only state, never touched by the concurrent API, so
	// deliberately outside mu.
	estGroups map[*workload.LUT]map[workload.Key]time.Duration
}

// NewServer validates and builds a server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("core: nil platform")
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	// NaN fails every ordinary range check (NaN <= 0 is false), so test
	// finiteness explicitly: a non-finite FPS or TimeScale would poison
	// every slot length and estimate downstream.
	if math.IsNaN(cfg.FPS) || math.IsInf(cfg.FPS, 0) || cfg.FPS <= 0 {
		return nil, fmt.Errorf("core: invalid FPS %v", cfg.FPS)
	}
	if math.IsNaN(cfg.TimeScale) || math.IsInf(cfg.TimeScale, 0) || cfg.TimeScale < 0 {
		return nil, fmt.Errorf("core: invalid TimeScale %v", cfg.TimeScale)
	}
	if cfg.Allocator == nil {
		cfg.Allocator = sched.AllocateContentAware
	}
	cfg.Admission = cfg.Admission.withDefaults()
	store := cfg.Store
	if store == nil {
		store = workload.NewStore()
	}
	return &Server{cfg: cfg, store: store, arrival: make(chan struct{}, 1)}, nil
}

// Store exposes the per-class workload LUT store (shared across sessions).
func (s *Server) Store() *workload.Store { return s.store }

// SubmitOptions carries a submission's QoS identity — the core-layer
// projection of the fleet's serve.SubmitRequest.
type SubmitOptions struct {
	// Tenant is the owning tenant's id ("" = the default tenant).
	Tenant string
	// Priority is the session's priority class (0 = best effort; higher
	// admits first and preempts). When 0 and the server has a tenancy
	// registry, the tenant's default priority applies.
	Priority int
}

// Submit enqueues a new session for service: the next round (of Run or
// ServeGOP) includes it in admission, sharing the workload LUT of its
// class. At most one SubmitOptions may follow the config; without it the
// session belongs to the default tenant at best-effort priority. Safe to
// call from any goroutine, before or while the server is running; fails
// after Close.
func (s *Server) Submit(src FrameSource, cfg SessionConfig, options ...SubmitOptions) (*Session, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil frame source")
	}
	var opts SubmitOptions
	switch len(options) {
	case 0:
	case 1:
		opts = options[0]
	default:
		return nil, fmt.Errorf("core: Submit takes at most one SubmitOptions, got %d", len(options))
	}
	if opts.Tenant == tenancy.DefaultID {
		opts.Tenant = ""
	}
	if s.cfg.Tenancy != nil {
		opts.Priority = s.cfg.Tenancy.Priority(opts.Tenant, opts.Priority)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: server closed to new sessions")
	}
	lut := s.store.ForClass(src.Class())
	sess, err := NewSession(len(s.records), src, cfg, lut)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.records = append(s.records, &sessionRecord{
		sess: sess, lastDemand: cfg.DemandHint,
		tenant: opts.Tenant, priority: opts.Priority,
	})
	s.mu.Unlock()
	s.wake()
	s.notifyState(sess.ID, StateQueued, nil)
	return sess, nil
}

// notifyState delivers one lifecycle transition to the OnSessionState hook.
// Always called outside s.mu.
func (s *Server) notifyState(id int, state SessionState, err error) {
	if s.cfg.OnSessionState != nil {
		s.cfg.OnSessionState(id, state, err)
	}
}

// Abort fails every session not yet in a terminal state with err and
// returns their ids (ascending). It is the dispatcher's last resort for a
// shard whose serving loop died for good: the sessions cannot be served,
// so they depart as StateFailed and the failure is observable through
// StateOf, the final report of a later Run, and the OnSessionState hook.
// Abort must not race a serving goroutine; it fails if a Run is active.
func (s *Server) Abort(err error) ([]int, error) {
	if err == nil {
		err = fmt.Errorf("core: shard aborted")
	}
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: Abort while Run is active")
	}
	var ids []int
	for id, rec := range s.records {
		if rec.state == StateQueued {
			rec.state = StateFailed
			rec.err = err
			ids = append(ids, id)
		}
	}
	s.mu.Unlock()
	for _, id := range ids {
		s.notifyState(id, StateFailed, err)
	}
	return ids, nil
}

// Close marks the arrival queue closed: no further Submit succeeds, and
// Run returns once every already-submitted session reaches a terminal
// state. Safe to call from any goroutine, more than once.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wake()
}

// wake nudges an idle Run loop (non-blocking).
func (s *Server) wake() {
	select {
	case s.arrival <- struct{}{}:
	default:
	}
}

// StateOf reports the lifecycle state of session id.
func (s *Server) StateOf(id int) (SessionState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.records) {
		return 0, false
	}
	return s.records[id].state, true
}

// GOPOutcome describes one served GOP round.
type GOPOutcome struct {
	// Round is the server-wide round index (0-based).
	Round int
	// Allocation is the stage-D2 result over all unfinished sessions.
	Allocation *sched.Result
	// Energy is the slot-level platform simulation of the allocation,
	// replayed over the GOP (GOPSize slots).
	Energy *mpsoc.SlotReport
	// GOPs holds the encoding outcome per admitted session (keyed by
	// session ID). When ServeGOP returns an error alongside the outcome,
	// GOPs covers the sessions whose encode completed before the failure
	// — callers can still account their energy and quality.
	GOPs map[int]*GOPReport
	// AdmittedUsers and RejectedUsers mirror the allocation (after the
	// admission ladder, when enabled).
	AdmittedUsers, RejectedUsers []int
	// TimedOut lists sessions whose queue deadline expired this round —
	// the admission ladder rejected them for good.
	TimedOut []int
	// Recovered lists rate-halved sessions restored to full rate this
	// round (ascending) — the platform held spare allocation headroom for
	// them over AdmissionConfig.RecoverAfterRounds consecutive rounds.
	Recovered []int
	// Preempted lists sessions the admission ladder pushed down a rung
	// this round while a strictly higher-priority session held admission
	// (ascending) — the priority-preemption signal: an emergency arrival
	// displaced these best-effort sessions instead of being refused.
	Preempted []int
	// TenantCores counts the distinct cores allocated to each tenant's
	// sessions this round ("" = the default tenant) — the per-round
	// weighted-fairness observable telemetry and tests assert against.
	TenantCores map[string]int
	// EstimateErr is the round's mean relative stage-D1 estimation error:
	// |estimate − measured| / measured averaged over the EstimateTiles
	// admitted tiles with a positive measurement, where the estimate is
	// the pre-round LUT prediction and the measurement the GOP's mean
	// modelled tile work (SessionConfig.TimeModel).
	EstimateErr float64
	// EstimateTiles is the number of tiles EstimateErr covers.
	EstimateTiles int
	// Ladder maps each session still queued as of the round's settlement
	// to its admission-ladder position — the per-rung depth signal
	// telemetry aggregates without reaching into server internals.
	Ladder map[int]LadderState
	// Totals is the server's cumulative platform ledger (energy, peak
	// power, deadline misses, simulated time) including this round — a
	// copy of the ledger's Energy taken at settlement, so a telemetry
	// sink can export exact lifetime totals from round events alone.
	Totals mpsoc.Totals
}

// LadderState is one live session's admission-ladder position as of a
// round's settlement (see admission.go): the highest rung applied, the
// accumulated QP offset, and whether the frame-rate rung currently
// halves its GOP rate.
type LadderState struct {
	Rung       int
	QPOffset   int
	RateHalved bool
}

// roundSession carries one live session through a round.
type roundSession struct {
	rec *sessionRecord
	// keys are the per-tile workload keys stage D1 looks up.
	keys []workload.Key
	// estimates are the pre-round per-tile LUT predictions (unscaled).
	estimates []time.Duration
}

// round is one GOP round's working state: serveRound opens it and hands it
// from stage to stage, all on the serving goroutine.
type round struct {
	index int         // the server-wide round index, read as the round opened
	out   *GOPOutcome // set by allocate; stays nil if nobody is left to seat
	// live are the sessions still competing, ascending by id; byID indexes
	// every session the round opened with, errs every retired one's error.
	live []*roundSession
	byID map[int]*roundSession
	errs map[int]error
}

// retire takes rs out of the round after its share failed — stages A–C,
// the admission ladder's re-read, or its encode: err is recorded, rs
// leaves r.live, and it departs as StateFailed at the round's next
// departure (depart before the encodes, settle after them). It costs the
// session its stream, not the shard a restart.
func (r *round) retire(rs *roundSession, err error) {
	r.errs[rs.rec.sess.ID] = err
	r.live = slices.DeleteFunc(r.live, func(x *roundSession) bool { return x == rs })
}

// departLocked moves the retired sessions still queued to StateFailed and
// returns their ids, ascending, for notification; s.mu is held.
func (r *round) departLocked() []int {
	var ids []int
	for id, err := range r.errs {
		if rec := r.byID[id].rec; rec.state == StateQueued {
			rec.state, rec.err = StateFailed, err
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// depart applies the pending StateFailed transitions and notifies them.
func (s *Server) depart(r *round) {
	if len(r.errs) == 0 {
		return
	}
	s.mu.Lock()
	ids := r.departLocked()
	s.mu.Unlock()
	for _, id := range ids {
		s.notifyState(id, StateFailed, r.errs[id])
	}
}

// ServeGOP runs one full round: estimate → allocate → simulate → encode.
// Sessions that are finished are skipped; if every session is finished an
// error is returned. The admitted sessions encode concurrently, each with
// the tile-worker budget of its allocated cores, and every session that
// finishes its GOP immediately runs stage A–C analysis for its next GOP so
// the following round's estimation is already prepared (estimate-ahead,
// overlapping the slower sessions' encodes). If any session fails, the
// round's partial outcome is returned alongside the error: the other
// sessions' completed GOP reports are in GOPs (the outcome is nil when
// every live session failed before allocation, so there was no round to
// serve).
func (s *Server) ServeGOP() (*GOPOutcome, error) {
	out, sessErrs, err := s.serveRound(context.Background())
	if err != nil {
		return out, err
	}
	// Historical contract: surface the first failing session's error (in
	// session order) alongside the partial outcome.
	if len(sessErrs) > 0 {
		return out, sessErrs[slices.Min(slices.Collect(maps.Keys(sessErrs)))]
	}
	return out, nil
}

// serveRound is the shared round implementation: one call per stage over
// one round value. It returns the outcome (nil when every live session
// failed before allocation: no round was served), the per-session errors
// (those sessions departed as StateFailed), and a round-level error
// (invalid state, cancellation, allocator or platform failure) after which
// only the partial outcome is to be trusted.
func (s *Server) serveRound(ctx context.Context) (*GOPOutcome, map[int]error, error) {
	r := new(round)
	if err := s.openRound(ctx, r); err != nil {
		return nil, nil, err
	}
	s.estimateRound(r)
	if err := s.allocate(r); err != nil {
		return nil, nil, err
	}
	if err := s.simulate(r); err != nil {
		return nil, nil, err
	}
	s.encode(ctx, r)
	// A cancelled round aborts service; sessions may be mid-GOP and are
	// not marked failed (the historical "server must not be reused after
	// cancellation" contract).
	if r.out != nil && ctx.Err() != nil {
		return r.out, nil, ctx.Err()
	}
	s.settle(r)
	return r.out, r.errs, nil
}

// openRound snapshots the live session set into r. Sessions finished
// outside the server complete on sight so they never block Run's
// completion, and rate-halved sessions due a skip sit this round out —
// unless nobody else needs it, in which case skipping would only idle the
// platform.
func (s *Server) openRound(ctx context.Context, r *round) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	var live, skipped []*sessionRecord
	var retired []int
	for _, rec := range s.records {
		if rec.state != StateQueued {
			continue
		}
		if rec.sess.Finished() {
			rec.state = StateCompleted
			retired = append(retired, rec.sess.ID)
			continue
		}
		if rec.skipRound {
			rec.skipRound = false
			skipped = append(skipped, rec)
			continue
		}
		live = append(live, rec)
	}
	if len(live) == 0 {
		live = skipped
	}
	r.index = s.rounds
	s.mu.Unlock()
	for _, id := range retired {
		s.notifyState(id, StateCompleted, nil)
	}
	if len(live) == 0 {
		return fmt.Errorf("core: no active sessions")
	}
	r.byID = make(map[int]*roundSession, len(live))
	for _, rec := range live {
		rs := &roundSession{rec: rec}
		r.live = append(r.live, rs)
		r.byID[rec.sess.ID] = rs
	}
	r.errs = make(map[int]error)
	return nil
}

// simulate prices the allocation's slot energy on the platform and counts
// the distinct cores carrying each tenant's threads: a round solves one
// tenant on the whole platform, or each tenant on its own core slice, so
// no core carries two tenants and the counts are exact shares.
func (s *Server) simulate(r *round) error {
	if r.out == nil {
		return nil
	}
	alloc := r.out.Allocation
	slot := time.Duration(float64(time.Second) / s.cfg.FPS)
	energy, err := s.cfg.Platform.SimulateSlot(alloc.Plans, slot)
	if err != nil {
		return err
	}
	r.out.Energy = energy
	r.out.TenantCores = make(map[string]int)
	seen := make(map[int]bool, alloc.CoresUsed)
	for _, a := range alloc.Assignments {
		if rs, ok := r.byID[a.Thread.User]; ok && !seen[a.Core] {
			seen[a.Core] = true
			r.out.TenantCores[rs.rec.tenant]++
		}
	}
	return nil
}

// recoverRates is the rate-rung recovery pass (the reverse of the
// admission ladder's frame-rate rung), run by settle with s.mu held: every
// rate-halved live session accumulates one headroom round when nobody was
// refused service this round and the platform kept enough spare cores to
// absorb the session's own demand on the rounds it currently sits out.
// Once a session has RecoverAfterRounds consecutive headroom rounds it is
// restored to full rate (reported in GOPOutcome.Recovered); any round
// without headroom resets the count — the hysteresis that keeps a
// borderline platform from flapping between half and full rate. Disabled
// when RecoverAfterRounds is 0.
func (s *Server) recoverRates(out *GOPOutcome) {
	k := s.cfg.Admission.RecoverAfterRounds
	if k <= 0 {
		return
	}
	spare := s.cfg.Platform.Cores - out.Allocation.CoresUsed
	clean := len(out.Allocation.Rejected) == 0 && len(out.TimedOut) == 0
	for _, rec := range s.records {
		if rec.state != StateQueued || !rec.sess.rateHalved {
			continue
		}
		if !clean || rec.lastDemand <= 0 || spare < rec.lastDemand {
			rec.headroom = 0
			continue
		}
		rec.headroom++
		if rec.headroom < k {
			continue
		}
		rec.sess.rateHalved = false
		rec.skipRound = false
		rec.headroom = 0
		out.Recovered = append(out.Recovered, rec.sess.ID)
	}
	sort.Ints(out.Recovered)
}

// estimateRound is stage D1 for the whole round: stages A–C (when
// needed) per session, then one batched LUT pass per workload class
// instead of a locked lookup per tile per session. A session whose
// stages A–C fail — a source that panics on its first GOP, or on any GOP
// in Sequential mode, where no estimate-ahead ran on an encode goroutine —
// is retired and departs before the round allocates.
func (s *Server) estimateRound(r *round) {
	for _, rs := range slices.Clone(r.live) {
		if err := s.prepareKeys(rs); err != nil {
			r.retire(rs, err)
		}
	}
	s.resolveEstimates(r.live)
	s.depart(r)
}

// prepareKeys runs stages A–C for the session when its GOP is not yet
// analysed and refreshes the per-tile workload keys.
func (s *Server) prepareKeys(rs *roundSession) error {
	sess := rs.rec.sess
	if err := guardSession(sess.ID, sess.prepareForEstimation); err != nil {
		return err
	}
	keys, err := sess.appendEstimationKeys(rs.keys[:0])
	if err != nil {
		return err
	}
	rs.keys = keys
	return nil
}

// resolveEstimates fills rs.estimates from rs.keys. Sessions sharing a
// class LUT share one estimate pass: their distinct keys are collected
// into a per-LUT map and resolved under a single read lock
// (workload.LUT.EstimateInto), so N same-class sessions with duplicate
// tile keys cost one lookup each instead of N. Values are exactly what
// per-tile lookups would return — the LUT is quiescent during
// estimation (it learns only in settle).
func (s *Server) resolveEstimates(live []*roundSession) {
	if s.estGroups == nil {
		s.estGroups = make(map[*workload.LUT]map[workload.Key]time.Duration)
	}
	for _, g := range s.estGroups {
		clear(g)
	}
	for _, rs := range live {
		g := s.estGroups[rs.rec.sess.lut]
		if g == nil {
			g = make(map[workload.Key]time.Duration)
			s.estGroups[rs.rec.sess.lut] = g
		}
		for _, k := range rs.keys {
			g[k] = 0
		}
	}
	for lut, g := range s.estGroups {
		lut.EstimateInto(g)
	}
	for _, rs := range live {
		g := s.estGroups[rs.rec.sess.lut]
		if cap(rs.estimates) < len(rs.keys) {
			rs.estimates = make([]time.Duration, len(rs.keys))
		}
		rs.estimates = rs.estimates[:len(rs.keys)]
		for i, k := range rs.keys {
			rs.estimates[i] = g[k]
		}
	}
}

// demandOf converts a session's estimates into the allocator's input,
// applying the platform time scale.
func (s *Server) demandOf(rs *roundSession) sched.UserDemand {
	sess := rs.rec.sess
	threads := make([]sched.Thread, len(rs.estimates))
	for i, est := range rs.estimates {
		if s.cfg.TimeScale > 0 && s.cfg.TimeScale != 1 {
			est = time.Duration(float64(est) * s.cfg.TimeScale)
		}
		threads[i] = sched.Thread{User: sess.ID, Tile: i, TimeFmax: est}
	}
	return sched.UserDemand{User: sess.ID, Threads: threads, Priority: rs.rec.priority}
}

// settle finalizes a round after the encodes. It feeds every served tile
// back into the LUT and scores the round's estimation error outside the
// lock, then holds s.mu once: the encode failures depart, finished
// sessions complete, rate-halved ones are flagged to skip, rates recover,
// and the ledger and the ladder snapshot are taken. The notifications
// follow the lock: failures, then completions, each in ascending id.
func (s *Server) settle(r *round) {
	out := r.out
	if out == nil {
		return
	}
	// The built-in allocators return Admitted sorted by id, but a custom
	// AllocatorFunc may not: sort a copy so the order-sensitive LUT update
	// really is applied in ascending session order (the documented
	// reproducibility invariant).
	admitted := slices.Sorted(slices.Values(out.AdmittedUsers))

	var errSum float64
	var errTiles int
	var tileSums []time.Duration
	for _, id := range admitted {
		rs, gop := r.byID[id], out.GOPs[id]
		if gop == nil {
			continue
		}
		// Feed every served tile's work back into the LUT. Applied here —
		// once per round, from the serving goroutine, in ascending session
		// order — so the update order (and with it every estimate) is
		// reproducible even though the encodes ran concurrently.
		tileSums = append(tileSums[:0], make([]time.Duration, len(gop.Grid.Tiles))...)
		rs.rec.sess.learn(gop, tileSums)
		// Estimation error: pre-round prediction vs the GOP's mean
		// modelled tile work. Every frame of a GOP has the grid's tiles.
		for i := 0; i < len(tileSums) && i < len(rs.estimates) && len(gop.Frames) > 0; i++ {
			m := tileSums[i] / time.Duration(len(gop.Frames))
			if m <= 0 {
				continue
			}
			d := float64(rs.estimates[i]-m) / float64(m)
			if d < 0 {
				d = -d
			}
			errSum += d
			errTiles++
		}
	}
	if errTiles > 0 {
		out.EstimateErr = errSum / float64(errTiles)
		out.EstimateTiles = errTiles
	}

	var completed []int
	s.mu.Lock()
	failed := r.departLocked()
	for _, id := range admitted {
		rec := r.byID[id].rec
		if out.GOPs[id] == nil {
			continue
		}
		// A rate-halved session just served a GOP: it sits out the next
		// round (admission ladder's frame-rate rung).
		if rec.sess.rateHalved {
			rec.skipRound = true
		}
		if rec.sess.Finished() && r.errs[id] == nil {
			rec.state = StateCompleted
			completed = append(completed, id)
		}
	}
	s.recoverRates(out)
	s.rounds++
	s.energy.Add(out.Energy)
	s.gopReports += len(out.GOPs)
	for _, gop := range out.GOPs {
		s.frames += len(gop.Frames)
	}
	out.Totals = s.energy
	out.Ladder = make(map[int]LadderState)
	for _, rec := range s.records {
		if rec.state != StateQueued {
			continue
		}
		out.Ladder[rec.sess.ID] = LadderState{
			Rung:       rec.rung,
			QPOffset:   rec.sess.qpOffset,
			RateHalved: rec.sess.rateHalved,
		}
	}
	s.mu.Unlock()
	for _, id := range failed {
		s.notifyState(id, StateFailed, r.errs[id])
	}
	for _, id := range completed {
		s.notifyState(id, StateCompleted, nil)
	}
}

// guardSession runs one session's share of a round — or, in NewSession,
// the first look at its source — and returns its failure, labelled with
// the session id. A panic counts as one: a FrameSource reports an I/O
// error the only way its signature allows (YUVFileSource panics), and that
// must cost the session its stream, not the process every other session
// is served from.
func guardSession(id int, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: session %d: panic: %v", id, r)
		}
	}()
	if err := fn(); err != nil {
		return fmt.Errorf("core: session %d: %w", id, err)
	}
	return nil
}

// encodeSequential is the reference serving path: admitted sessions encode
// one after another, each with its configured worker budget. A failure stops
// the round (later sessions are not started and stay queued), but the
// sessions already encoded keep their reports.
func (s *Server) encodeSequential(ctx context.Context, r *round) {
	for _, id := range r.out.AdmittedUsers {
		rs := r.byID[id]
		err := guardSession(id, func() error {
			gop, err := rs.rec.sess.encodeGOP(ctx, 0)
			if err == nil {
				r.out.GOPs[id] = gop
			}
			return err
		})
		if err != nil {
			r.retire(rs, err)
			return
		}
	}
}

// encode runs the admitted sessions' GOPs into r.out.GOPs and retires
// each session whose encode fails. Unless Sequential, the sessions run in
// parallel, one goroutine per session. Each session's intra-frame tile parallelism is budgeted
// from the cores the allocator assigned to it this round, so the execution
// mirrors the plan the platform simulation priced. Encoded output does not
// depend on goroutine scheduling: the encodes leave the shared workload LUT
// alone (settle feeds it afterwards), and per-session state is touched
// by exactly one goroutine.
func (s *Server) encode(ctx context.Context, r *round) {
	if r.out == nil {
		return
	}
	if s.cfg.Sequential {
		s.encodeSequential(ctx, r)
		return
	}
	alloc := r.out.Allocation
	gops := make([]*GOPReport, len(alloc.Admitted))
	errs := make([]error, len(alloc.Admitted))
	var wg sync.WaitGroup
	for i, id := range alloc.Admitted {
		wg.Add(1)
		go func(i int, sess *Session) {
			defer wg.Done()
			errs[i] = guardSession(sess.ID, func() error {
				gop, err := sess.encodeGOP(ctx, alloc.CoresOf(sess.ID))
				if err != nil {
					return err
				}
				gops[i] = gop
				// Estimate-ahead: prepare the next GOP's stages A–C now,
				// while slower sessions are still encoding, so the next
				// round's estimation loop finds the analysis already done.
				if !sess.Finished() {
					if err := sess.prepareForEstimation(); err != nil {
						return fmt.Errorf("estimate-ahead: %w", err)
					}
				}
				return nil
			})
		}(i, r.byID[id].rec.sess)
	}
	wg.Wait()
	for i, id := range alloc.Admitted {
		if gops[i] != nil {
			r.out.GOPs[id] = gops[i]
		}
		if errs[i] != nil {
			r.retire(r.byID[id], errs[i])
		}
	}
}

// ServeAll runs ServeGOP until every session finishes or maxRounds is
// reached, returning all outcomes. Sessions rejected in one round compete
// again in the next (the paper's saturated-queue regime keeps the rejected
// users waiting). On a round error the outcomes returned include that
// round's partial outcome (if any), so the completed sessions' work
// remains accountable.
func (s *Server) ServeAll(maxRounds int) ([]*GOPOutcome, error) {
	var outs []*GOPOutcome
	for round := 0; round < maxRounds && s.hasServable(); round++ {
		out, err := s.ServeGOP()
		if out != nil {
			outs = append(outs, out)
		}
		if err != nil {
			return outs, err
		}
		if len(out.AdmittedUsers) == 0 && len(out.TimedOut) == 0 {
			return outs, fmt.Errorf("core: no user admitted in round %d — demands exceed platform", round)
		}
	}
	return outs, nil
}
