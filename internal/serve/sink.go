package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mpsoc"
)

// GOPEvent reports one GOP a shard served for one session.
type GOPEvent struct {
	Shard   int
	Session int
	// Round is the shard-local round index the GOP was served in.
	Round int
	GOP   *core.GOPReport
}

// SessionEvent reports one session lifecycle transition.
type SessionEvent struct {
	Shard   int
	Session int
	State   core.SessionState
	// Err is the terminal error of a failed session (nil otherwise).
	Err error
}

// RoundEvent reports one settled serving round of one shard.
type RoundEvent struct {
	Shard   int
	Outcome *core.GOPOutcome
	// Load is the shard's load report as of the round's settlement —
	// live sessions, their summed core demand, capacity and utilization.
	Load core.LoadReport
}

// PlacementEvent reports where Submit routed one session — the
// demand-aware placement decision (DESIGN.md §7). Delivered from the
// submitting goroutine right after the session's StateQueued event.
type PlacementEvent struct {
	// Shard is where the session landed.
	Shard int
	// Home is the consistent-hash home of the session's class at
	// placement time (-1 with no routable shard); Shard differs from it
	// when capacity, demand or shard health steered the session away.
	Home int
	// Session is the shard-local session id.
	Session int
	// Class is the session's workload class (the routing key).
	Class string
	// DemandCores is the placement-time core-demand estimate (1 when
	// demand-aware placement is off).
	DemandCores int
	// Tenant is the submitting tenant's id as given to SubmitWith ("" =
	// the default tenant); Priority is the resolved priority class the
	// session competes at.
	Tenant   string
	Priority int
}

// ShardEvent reports a fleet membership change (resize).
type ShardEvent struct {
	// Shard is the index of the shard that joined or left.
	Shard int
	// Live is the number of routable shards after the change.
	Live int
}

// MigrationEvent reports one session's GOP-boundary handoff between
// shards during a resize. Session ids are shard-local: the session that
// was (FromShard, FromSession) is (ToShard, ToSession) from now on — a
// sink stitching a session's telemetry across shards joins on this
// event.
type MigrationEvent struct {
	FromShard   int
	FromSession int
	ToShard     int
	ToSession   int
	// Class is the session's workload class (the routing key).
	Class string
	// Frame is the session's next-frame cursor — the GOP boundary it
	// migrated at.
	Frame int
	// Tenant is the session's tenant id ("" = the default tenant) — the
	// QoS identity that rode along in the snapshot, so a sink keeping
	// per-tenant books can move the session between shards too.
	Tenant string
}

// Sink receives the fleet's streaming telemetry — the service-level
// observation channel for everything per-round: a sink sees every event
// as it happens and decides what to keep, and nothing else does (the
// reports hold counters only), so a fleet can run indefinitely without
// accumulating per-GOP state it will never look at again.
//
// Delivery contract (see DESIGN.md §5): the fleet serializes all sink
// calls — no two methods run concurrently, so implementations need no
// internal locking for the On* path. All round-scoped events of one
// shard are delivered in order from that shard's serving goroutine:
// state changes settled by the round (including terminal states), then
// one OnGOP per admitted session in ascending session id, then one
// OnRoundMetrics; per (shard, session) the GOPs arrive in round order
// with the terminal transition during the final round's settlement.
// Events of different shards interleave arbitrarily. The
// cross-goroutine events are StateQueued and OnSessionPlaced, delivered
// in that order from the goroutine that called Submit before Submit
// returns — in practice StateQueued precedes
// the session's first OnGOP (a submission is first served on a later
// round), but that ordering is not synchronized. Sink methods must not
// call back into the fleet: Submit would re-enter the sink dispatch lock
// on the same goroutine (self-deadlock), and serving methods are off
// limits as everywhere. Close is the one permitted call. Churn-driven
// callers inject arrivals through WithRoundHook, which runs after the
// round's sink delivery with no sink lock held.
//
// Elasticity events (Fleet.resize, DESIGN.md §6): OnShardAdded arrives
// after the new shard is routable, from the resize caller's goroutine.
// A removal delivers, from the draining shard's supervisor goroutine
// (or the resize caller's when the fleet is idle), in order: one
// StateMigrated OnSessionStateChange per exported session on the donor,
// then per migrated session a StateQueued OnSessionStateChange on the
// target followed by the OnSessionMigrated linking the two ids, then
// one OnShardRemoved — all after the donor's final round settled, so a
// session's donor-side GOPs always precede its migration event.
// Rebalancing events (Fleet control loop, DESIGN.md §7): a hot shard
// shedding load delivers, from its own serving goroutine right after its
// round's OnRoundMetrics, per shed session: one StateMigrated
// OnSessionStateChange on the donor, then a StateQueued
// OnSessionStateChange on the target, then the OnSessionRebalanced
// linking the two ids — the same shape as a resize migration, with
// OnSessionRebalanced in place of OnSessionMigrated and no shard-removed
// event (the fleet keeps its size).
type Sink interface {
	OnGOP(e GOPEvent)
	OnSessionStateChange(e SessionEvent)
	OnSessionPlaced(e PlacementEvent)
	OnRoundMetrics(e RoundEvent)
	OnShardAdded(e ShardEvent)
	OnShardRemoved(e ShardEvent)
	OnSessionMigrated(e MigrationEvent)
	OnSessionRebalanced(e MigrationEvent)
}

// NopSink implements every Sink method as a no-op — embed it to build a
// sink that only cares about some events.
type NopSink struct{}

func (NopSink) OnGOP(GOPEvent)                     {}
func (NopSink) OnSessionStateChange(SessionEvent)  {}
func (NopSink) OnSessionPlaced(PlacementEvent)     {}
func (NopSink) OnRoundMetrics(RoundEvent)          {}
func (NopSink) OnShardAdded(ShardEvent)            {}
func (NopSink) OnShardRemoved(ShardEvent)          {}
func (NopSink) OnSessionMigrated(MigrationEvent)   {}
func (NopSink) OnSessionRebalanced(MigrationEvent) {}

// RingSink is the bounded-memory sink: it keeps exact counters per shard
// (rounds, frames, GOP reports, energy totals, session lifecycle states)
// forever and the most recent Capacity round outcomes in a ring buffer.
// Report folds the counters into the same serve.Report the fleet reads
// from its ledgers — the event-derived view of the same facts — and
// Outcomes hands out the retained rounds; on a long-running fleet the
// counters stay exact while memory stays bounded.
//
// Safe for concurrent use: the On* path is serialized by the fleet, and
// the accessors may be called from any goroutine at any time.
type RingSink struct {
	mu sync.Mutex

	capacity int
	outcomes []*core.GOPOutcome // ring buffer
	next     int                // write position
	total    int                // outcomes ever seen

	// shards is indexed by shard and grows to cover every index an event
	// named.
	shards []ringShard

	migrations    int
	rebalances    int
	shardsAdded   int
	shardsRemoved int
}

// ringShard is one shard's slice of the event stream.
type ringShard struct {
	rounds, frames, gops int
	energy               mpsoc.Totals
	// imported counts migration and rebalance hops that landed here.
	imported int
	states   map[int]core.SessionState // session → latest state
	errs     map[int]error
}

// NewRingSink builds a sink retaining the last capacity round outcomes
// (minimum 1).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{capacity: capacity}
}

// shard returns shard i's counters, growing the table to reach it. Caller
// holds s.mu.
func (s *RingSink) shard(i int) *ringShard {
	for len(s.shards) <= i {
		s.shards = append(s.shards, ringShard{
			states: make(map[int]core.SessionState),
			errs:   make(map[int]error),
		})
	}
	return &s.shards[i]
}

func (s *RingSink) OnGOP(e GOPEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shard(e.Shard)
	sh.gops++
	sh.frames += len(e.GOP.Frames)
}

func (s *RingSink) OnSessionStateChange(e SessionEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shard(e.Shard)
	// The StateQueued event is the one delivery unsynchronized with the
	// serving stream (see the Sink contract): if it arrives after the
	// session already reached a terminal state, keep the terminal state —
	// a session must never vanish from the reconstructed report.
	if e.State == core.StateQueued {
		if cur, seen := sh.states[e.Session]; seen && cur != core.StateQueued {
			return
		}
	}
	sh.states[e.Session] = e.State
	if e.Err != nil {
		sh.errs[e.Session] = e.Err
	}
}

func (s *RingSink) OnSessionPlaced(PlacementEvent) {}

func (s *RingSink) OnRoundMetrics(e RoundEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shard(e.Shard)
	sh.rounds++
	sh.energy.Add(e.Outcome.Energy)
	if len(s.outcomes) < s.capacity {
		s.outcomes = append(s.outcomes, e.Outcome)
	} else {
		s.outcomes[s.next] = e.Outcome
	}
	s.next = (s.next + 1) % s.capacity
	s.total++
}

func (s *RingSink) OnShardAdded(e ShardEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shard(e.Shard) // the new shard has a report even before its first event
	s.shardsAdded++
}

func (s *RingSink) OnShardRemoved(ShardEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shardsRemoved++
}

func (s *RingSink) OnSessionMigrated(e MigrationEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shard(e.ToShard).imported++
	s.migrations++
}

func (s *RingSink) OnSessionRebalanced(e MigrationEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shard(e.ToShard).imported++
	s.rebalances++
}

// Migrations reports how many session-migration hops the sink saw
// (resize drains; rebalance hops are counted by Rebalances).
func (s *RingSink) Migrations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.migrations
}

// Rebalances reports how many hot-shard rebalance hops the sink saw.
func (s *RingSink) Rebalances() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rebalances
}

// Resizes reports how many shards were added and removed.
func (s *RingSink) Resizes() (added, removed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shardsAdded, s.shardsRemoved
}

// Dropped reports how many round outcomes fell out of the ring (0 while
// the service fits).
func (s *RingSink) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.total <= s.capacity {
		return 0
	}
	return s.total - s.capacity
}

// Report derives the fleet-wide view from the events seen so far: the
// same type, with the same meaning field for field, that Fleet.Report
// reads from the shards' ledgers — session ids stay shard-local under
// each shard's sub-report, so colliding ids never merge. Two things an
// event stream cannot show are left zero: the supervisor's side of a
// ShardReport (Restarts, Err), and any trailing shard that never
// produced an event.
func (s *RingSink) Report() *Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	shards := make([]ShardReport, len(s.shards))
	for i, sh := range s.shards {
		rep := &core.ServiceReport{
			Rounds:        sh.rounds,
			Imported:      sh.imported,
			FramesEncoded: sh.frames,
			GOPReports:    sh.gops,
			Energy:        sh.energy,
			Errors:        make(map[int]error),
		}
		ids := make([]int, 0, len(sh.states))
		for id := range sh.states {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			rep.Book(id, sh.states[id], sh.errs[id])
		}
		shards[i] = ShardReport{Shard: i, Report: rep}
	}
	return sumShards(shards, s.rebalances)
}

// Outcomes returns the retained round outcomes of every shard in arrival
// order (oldest first) — all of them while the service fits the ring.
func (s *RingSink) Outcomes() []*core.GOPOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.total <= s.capacity {
		return append([]*core.GOPOutcome(nil), s.outcomes...)
	}
	ordered := make([]*core.GOPOutcome, 0, s.capacity)
	for i := 0; i < s.capacity; i++ {
		ordered = append(ordered, s.outcomes[(s.next+i)%s.capacity])
	}
	return ordered
}

// jsonlPolicy selects what a JSONLSink does when its buffer is
// full: block the serving goroutine until the writer catches up (no data
// loss) or drop the line and count it (no serving stall, ever).
type jsonlPolicy int

const (
	// JSONLBlock waits for buffer space — telemetry is complete, but a
	// writer slower than the event rate eventually stalls serving.
	JSONLBlock jsonlPolicy = iota
	// JSONLDrop discards the line when the buffer is full and counts it
	// (Dropped) — serving never waits on the writer.
	JSONLDrop
)

// JSONLSink streams every event as one JSON line — the wire format for
// shipping fleet telemetry into a log pipeline instead of process memory.
// Events are flattened to stable scalar fields (no frame payloads, no
// pointers), so lines stay small and parseable regardless of GOP size.
//
// A writer called from the event callbacks would hold the fleet's
// serialized sink dispatch for as long as it blocks (a slow network pipe
// stalls every serving goroutine), so the sink is buffered: events marshal
// on the serving goroutine into a bounded buffer a dedicated writer
// goroutine drains, with a jsonlPolicy choosing block-or-drop when the
// buffer fills. Call Close to flush and stop the writer.
type JSONLSink struct {
	lines     chan []byte
	drop      bool
	dropped   atomic.Uint64
	done      chan struct{}
	closeOnce sync.Once
	w         io.Writer
	werr      error // writer goroutine's first error; read after done
}

// NewBufferedJSONLSink streams events to w through a bounded buffer of
// depth lines (minimum 1) drained by a writer goroutine, so a slow
// writer does not stall serving through the sink lock. policy picks
// block-or-drop on a full buffer; dropped lines are counted (Dropped).
// Close flushes the buffer, stops the writer and returns its first
// write error.
func NewBufferedJSONLSink(w io.Writer, depth int, policy jsonlPolicy) *JSONLSink {
	if depth < 1 {
		depth = 1
	}
	s := &JSONLSink{
		lines: make(chan []byte, depth),
		drop:  policy == JSONLDrop,
		done:  make(chan struct{}),
		w:     w,
	}
	go func() {
		defer close(s.done)
		for line := range s.lines {
			if s.werr != nil {
				continue // drain without writing after a failure
			}
			if _, err := s.w.Write(line); err != nil {
				s.werr = err
			}
		}
	}()
	return s
}

// Close flushes the buffer and stops the writer goroutine, returning the
// writer's first error. No event may be delivered after Close.
func (s *JSONLSink) Close() error {
	s.closeOnce.Do(func() { close(s.lines) })
	<-s.done
	return s.werr
}

// Dropped reports how many lines a JSONLDrop sink discarded because the
// writer could not keep up.
func (s *JSONLSink) Dropped() uint64 { return s.dropped.Load() }

// finiteOr0 clamps a non-finite float to 0: encoding/json refuses to
// marshal NaN/Inf, and emit drops the whole line when marshaling fails —
// one poisoned field must not silently kill an otherwise-good telemetry
// line.
func finiteOr0(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// emit queues one event line for the writer, under the sink's policy.
func (s *JSONLSink) emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	b = append(b, '\n')
	if s.drop {
		select {
		case s.lines <- b:
		default:
			s.dropped.Add(1)
		}
		return
	}
	s.lines <- b
}

type jsonlGOP struct {
	Event    string  `json:"event"` // "gop"
	Shard    int     `json:"shard"`
	Session  int     `json:"session"`
	Round    int     `json:"round"`
	GOPIndex int     `json:"gop_index"`
	Frames   int     `json:"frames"`
	Tiles    int     `json:"tiles"`
	PSNR     float64 `json:"psnr_db"`
	Kbps     float64 `json:"kbps"`
	CPUms    float64 `json:"cpu_ms"`
	Digest   string  `json:"digest"`
}

type jsonlState struct {
	Event   string `json:"event"` // "session_state"
	Shard   int    `json:"shard"`
	Session int    `json:"session"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
}

type jsonlRound struct {
	Event       string  `json:"event"` // "round"
	Shard       int     `json:"shard"`
	Round       int     `json:"round"`
	Admitted    []int   `json:"admitted"`
	Rejected    []int   `json:"rejected,omitempty"`
	TimedOut    []int   `json:"timed_out,omitempty"`
	Recovered   []int   `json:"recovered,omitempty"`
	Preempted   []int   `json:"preempted,omitempty"`
	CoresUsed   int     `json:"cores_used"`
	AvgPowerW   float64 `json:"avg_power_w"`
	EstimateErr float64 `json:"estimate_err,omitempty"`
	Sessions    int     `json:"sessions"`
	Demand      int     `json:"demand_cores"`
	Capacity    int     `json:"capacity_cores"`
	Util        float64 `json:"util"`
	// TenantCores breaks the round's core grant down by tenant id
	// (omitted on single-tenant rounds where it carries no information).
	TenantCores map[string]int `json:"tenant_cores,omitempty"`
}

type jsonlPlacement struct {
	Event    string `json:"event"` // "session_placed"
	Shard    int    `json:"shard"`
	Session  int    `json:"session"`
	Class    string `json:"class"`
	Home     int    `json:"home"`
	Demand   int    `json:"demand_cores"`
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
}

type jsonlShard struct {
	Event string `json:"event"` // "shard_added" / "shard_removed"
	Shard int    `json:"shard"`
	Live  int    `json:"live_shards"`
}

type jsonlMigration struct {
	Event       string `json:"event"` // "session_migrated" / "session_rebalanced"
	FromShard   int    `json:"from_shard"`
	FromSession int    `json:"from_session"`
	ToShard     int    `json:"to_shard"`
	ToSession   int    `json:"to_session"`
	Class       string `json:"class"`
	Frame       int    `json:"frame"`
	Tenant      string `json:"tenant,omitempty"`
}

func (s *JSONLSink) OnGOP(e GOPEvent) {
	s.emit(jsonlGOP{
		Event:    "gop",
		Shard:    e.Shard,
		Session:  e.Session,
		Round:    e.Round,
		GOPIndex: e.GOP.Index,
		Frames:   len(e.GOP.Frames),
		Tiles:    e.GOP.Grid.NumTiles(),
		PSNR:     finiteOr0(e.GOP.MeanPSNR),
		Kbps:     finiteOr0(e.GOP.MeanKbps),
		CPUms:    float64(e.GOP.CPUTime.Microseconds()) / 1e3,
		Digest:   fmt.Sprintf("%016x", e.GOP.Digest),
	})
}

func (s *JSONLSink) OnSessionStateChange(e SessionEvent) {
	line := jsonlState{
		Event:   "session_state",
		Shard:   e.Shard,
		Session: e.Session,
		State:   e.State.String(),
	}
	if e.Err != nil {
		line.Error = e.Err.Error()
	}
	s.emit(line)
}

func (s *JSONLSink) OnRoundMetrics(e RoundEvent) {
	out := e.Outcome
	// The per-tenant core breakdown only earns its bytes when a named
	// tenant is in play; the default-tenant-only map is implied by
	// cores_used. The "" key is spelled out as "default" on the wire.
	var tenantCores map[string]int
	for t, c := range out.TenantCores {
		if t == "" && len(out.TenantCores) == 1 {
			break
		}
		if tenantCores == nil {
			tenantCores = make(map[string]int, len(out.TenantCores))
		}
		if t == "" {
			t = "default"
		}
		tenantCores[t] = c
	}
	s.emit(jsonlRound{
		Event:       "round",
		Shard:       e.Shard,
		Round:       out.Round,
		Admitted:    out.AdmittedUsers,
		Rejected:    out.RejectedUsers,
		TimedOut:    out.TimedOut,
		Recovered:   out.Recovered,
		Preempted:   out.Preempted,
		TenantCores: tenantCores,
		CoresUsed:   out.Allocation.CoresUsed,
		AvgPowerW:   finiteOr0(out.Energy.AvgPowerW),
		EstimateErr: finiteOr0(out.EstimateErr),
		Sessions:    e.Load.Sessions,
		Demand:      e.Load.DemandCores,
		Capacity:    e.Load.CapacityCores,
		Util:        finiteOr0(e.Load.Util),
	})
}

func (s *JSONLSink) OnSessionPlaced(e PlacementEvent) {
	s.emit(jsonlPlacement{
		Event:    "session_placed",
		Shard:    e.Shard,
		Session:  e.Session,
		Class:    e.Class,
		Home:     e.Home,
		Demand:   e.DemandCores,
		Tenant:   e.Tenant,
		Priority: e.Priority,
	})
}

func (s *JSONLSink) OnShardAdded(e ShardEvent) {
	s.emit(jsonlShard{Event: "shard_added", Shard: e.Shard, Live: e.Live})
}

func (s *JSONLSink) OnShardRemoved(e ShardEvent) {
	s.emit(jsonlShard{Event: "shard_removed", Shard: e.Shard, Live: e.Live})
}

func (s *JSONLSink) OnSessionMigrated(e MigrationEvent) {
	s.emitMigration("session_migrated", e)
}

func (s *JSONLSink) OnSessionRebalanced(e MigrationEvent) {
	s.emitMigration("session_rebalanced", e)
}

func (s *JSONLSink) emitMigration(event string, e MigrationEvent) {
	s.emit(jsonlMigration{
		Event:       event,
		FromShard:   e.FromShard,
		FromSession: e.FromSession,
		ToShard:     e.ToShard,
		ToSession:   e.ToSession,
		Class:       e.Class,
		Frame:       e.Frame,
		Tenant:      e.Tenant,
	})
}
