package core

import (
	"maps"
	"slices"
	"sort"

	"repro/internal/mpsoc"
	"repro/internal/sched"
)

// AdmissionConfig parametrizes the overload-aware admission ladder. When
// the stage-D2 allocator cannot admit every live session, the server
// degrades the refused sessions' service level step by step instead of
// letting them starve silently:
//
//	rung 1 — newcomers fall back to the uniform tiling (Session.degrade);
//	rung 2+ — the session's QP is offset upward in qpOffsetStep increments
//	          up to maxQPOffset, shrinking its estimated workload;
//	next    — the session's frame rate is halved (Session.rateHalved): it is
//	          served every other GOP round, so a heavily-overloaded platform
//	          keeps it connected at half rate instead of starving it;
//	then    — the session queues, re-competing every round, for at most
//	          MaxQueueRounds rounds before it is rejected for good.
//
// Each escalation re-runs stage D1 on the degraded configuration and the
// allocator gets another look, all within the same round — a newcomer that
// fits at a lower service level is admitted in the round it arrived.
type AdmissionConfig struct {
	// Enabled turns the ladder on. Disabled (the zero value), refused
	// sessions keep their full-quality configuration and wait
	// indefinitely — the historical saturated-queue behavior.
	Enabled bool
	// MaxQueueRounds is how many consecutive rounds a fully-degraded
	// session may wait for admission before being rejected (0 → 8).
	MaxQueueRounds int
	// RecoverAfterRounds enables rate-rung recovery: a rate-halved
	// session returns to full rate once the
	// platform has held spare allocation headroom for it — no session
	// refused, spare cores ≥ the session's own demand — for this many
	// consecutive rounds. Any round without headroom resets the count
	// (hysteresis against flapping). 0 (the default) leaves recovery
	// off: the rate rung stays one-way, the historical behavior.
	// Recovery runs whenever it is non-zero, even with Enabled false, so
	// sessions imported already halved recover too.
	RecoverAfterRounds int
}

// The ladder's QP rungs: the increment per escalation and the bound on the
// total QP degradation.
const (
	qpOffsetStep = 4
	maxQPOffset  = 8
)

// withDefaults fills the zero values.
func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxQueueRounds <= 0 {
		c.MaxQueueRounds = 8
	}
	return c
}

// Admission-ladder rungs recorded per session. rung 0 is full service;
// rungDegradedTiling and up mark applied degradations. The final rung
// after every QP step — frame-rate halving — is tracked on the session
// itself (Session.RateHalved).
const (
	rungNone = iota
	rungDegradedTiling
	rungQPOffset // rungQPOffset+k means a QP offset of (k+1)·qpOffsetStep
)

// allocate runs stage D2 over the live sessions, escalating the admission
// ladder until the allocation stops improving, and opens r.out on the
// final allocation with the ids whose queue deadline expired this round
// (already StateRejected) and those pushed down the ladder under priority
// preemption (ascending). A refused session whose rung fails — its source
// fails the degrade's re-read — is retired, and the allocator re-solves
// without it.
func (s *Server) allocate(r *round) error {
	if len(r.live) == 0 {
		return nil
	}
	alloc, err := s.solveTenants(r.live)
	if err != nil {
		return err
	}

	preempted := map[int]bool{}
	if s.cfg.Admission.Enabled {
		// One allocator pass per ladder escalation: degrade first, then
		// QP offsets until maxQPOffset, then the frame-rate rung. Bounded
		// by the rung count, so a session that cannot fit at any service
		// level stops escalating. Sessions refused while a strictly
		// higher-priority session holds admission were displaced by it —
		// priority-ordered admission seated the newcomer first — so their
		// escalation is the preemption pushdown and is reported as such.
		const maxPasses = 3 + maxQPOffset/qpOffsetStep
		for pass := 0; pass < maxPasses && len(alloc.Rejected) > 0; pass++ {
			topPriority := 0
			for _, id := range alloc.Admitted {
				topPriority = max(topPriority, r.byID[id].rec.priority)
			}
			demandChanged := false
			for _, id := range alloc.Rejected {
				rs := r.byID[id]
				applied, changed, err := s.escalate(rs)
				if err == nil && changed {
					// The degraded configuration changes the session's
					// grid and/or keys: re-run stage D1 on it.
					if err = s.prepareKeys(rs); err == nil {
						s.resolveEstimates([]*roundSession{rs})
					}
				}
				if err != nil {
					r.retire(rs, err)
					demandChanged = true
					continue
				}
				demandChanged = demandChanged || changed
				if applied && rs.rec.priority < topPriority {
					preempted[id] = true
				}
			}
			if !demandChanged || len(r.live) == 0 {
				// Only the frame-rate rung applied, or none: this round's
				// demand is unchanged (the rate rung acts when the session is
				// next served), so another solve would repeat the rejection.
				break
			}
			if alloc, err = s.solveTenants(r.live); err != nil {
				return err
			}
		}
	}
	s.depart(r)
	if len(r.live) == 0 {
		return nil // every refused session failed its rung: no round to serve
	}

	r.out = &GOPOutcome{
		Round:         r.index,
		Allocation:    alloc,
		GOPs:          make(map[int]*GOPReport, len(alloc.Admitted)),
		AdmittedUsers: alloc.Admitted,
		RejectedUsers: alloc.Rejected,
		Preempted:     slices.Sorted(maps.Keys(preempted)),
	}
	s.finishRound(r)
	return nil
}

// solveTenants runs one stage-D2 solve over the live roster. With zero or
// one distinct tenants the allocator sees the whole platform — the
// historical single-tenant path, byte-identical to the pre-tenancy
// behavior. With several, platform cores are first apportioned across the
// tenants by registry weight (work-conserving largest remainder, capped
// at each tenant's demand — sched.ApportionCores) and each tenant's
// sessions are solved on their own contiguous core slice: a flooding
// tenant competes only within its weighted share, so it cannot starve a
// light one (DESIGN.md §9).
func (s *Server) solveTenants(live []*roundSession) (*sched.Result, error) {
	multi := false
	for _, rs := range live[1:] {
		if rs.rec.tenant != live[0].rec.tenant {
			multi = true
			break
		}
	}
	if !multi {
		in := sched.Input{Platform: s.cfg.Platform, FPS: s.cfg.FPS}
		for _, rs := range live {
			in.Users = append(in.Users, s.demandOf(rs))
		}
		return s.cfg.Allocator(in)
	}

	// Group the roster by tenant; tenants solve in sorted-id order so the
	// core-slice layout is deterministic.
	users := make(map[string][]sched.UserDemand)
	var order []string
	for _, rs := range live {
		t := rs.rec.tenant
		if _, ok := users[t]; !ok {
			order = append(order, t)
		}
		users[t] = append(users[t], s.demandOf(rs))
	}
	sort.Strings(order)
	weights := make(map[string]int, len(order))
	demands := make(map[string]int, len(order))
	for _, t := range order {
		weights[t] = 1
		if s.cfg.Tenancy != nil {
			weights[t] = s.cfg.Tenancy.Weight(t)
		}
		for _, u := range users[t] {
			demands[t] += u.CoresNeeded(s.cfg.FPS)
		}
	}
	shares := sched.ApportionCores(s.cfg.Platform.Cores, order, weights, demands)

	merged := &sched.Result{
		Plans:       make([]mpsoc.CorePlan, s.cfg.Platform.Cores),
		UserCores:   make(map[int]int),
		DemandCores: make(map[int]int),
	}
	offset := 0
	for _, t := range order {
		share := shares[t]
		if share <= 0 {
			// No entitlement this round: the tenant's sessions are
			// refused without a solve and take the ladder like any other
			// refusal.
			for _, u := range users[t] {
				merged.Rejected = append(merged.Rejected, u.User)
				merged.DemandCores[u.User] = u.CoresNeeded(s.cfg.FPS)
			}
			continue
		}
		sub := *s.cfg.Platform
		sub.Cores = share
		r, err := s.cfg.Allocator(sched.Input{Platform: &sub, FPS: s.cfg.FPS, Users: users[t]})
		if err != nil {
			return nil, err
		}
		merged.Admitted = append(merged.Admitted, r.Admitted...)
		merged.Rejected = append(merged.Rejected, r.Rejected...)
		for _, a := range r.Assignments {
			a.Core += offset
			merged.Assignments = append(merged.Assignments, a)
		}
		copy(merged.Plans[offset:offset+share], r.Plans)
		merged.CoresUsed += r.CoresUsed
		for u, n := range r.UserCores {
			merged.UserCores[u] = n
		}
		for u, n := range r.DemandCores {
			merged.DemandCores[u] = n
		}
		offset += share
	}
	// Cores beyond the apportioned shares carry no work: power-gated for
	// the slot, mirroring the allocators' own idle-core plans.
	for k := offset; k < len(merged.Plans); k++ {
		merged.Plans[k] = mpsoc.CorePlan{
			BusyLevel: s.cfg.Platform.MaxLevel(),
			IdleLevel: s.cfg.Platform.MinLevel(),
			Gated:     true,
		}
	}
	sort.Ints(merged.Admitted)
	sort.Ints(merged.Rejected)
	return merged, nil
}

// finishRound applies the post-allocation queue bookkeeping: admitted
// sessions reset their wait; refused sessions at the end of the ladder
// accumulate it and time out, listed in r.out.TimedOut (ascending, already
// StateRejected).
func (s *Server) finishRound(r *round) {
	alloc := r.out.Allocation
	var timedOut []int
	s.mu.Lock()
	for _, rs := range r.live {
		// Remember each competitor's core demand — the headroom bar its
		// rate-rung recovery must clear on the rounds it sits out.
		if d, ok := alloc.DemandCores[rs.rec.sess.ID]; ok {
			rs.rec.lastDemand = d
		}
	}
	for _, id := range alloc.Admitted {
		r.byID[id].rec.waited = 0
	}
	for _, id := range alloc.Rejected {
		rec := r.byID[id].rec
		rec.waited++
		if s.cfg.Admission.Enabled && rec.waited > s.cfg.Admission.MaxQueueRounds {
			rec.state = StateRejected
			timedOut = append(timedOut, id)
		}
	}
	s.mu.Unlock()
	sort.Ints(timedOut)
	for _, id := range timedOut {
		s.notifyState(id, StateRejected, nil)
	}
	r.out.TimedOut = timedOut
}

// escalate applies the next admission-ladder rung to a refused session.
// It reports whether a degradation was applied (false once the ladder is
// exhausted and the session can only queue) and whether the degradation
// changed the session's current-round demand — only then is a stage-D1
// re-estimate and another allocator pass worth running.
func (s *Server) escalate(rs *roundSession) (applied, demandChanged bool, err error) {
	sess := rs.rec.sess
	if rs.rec.rung == rungNone {
		rs.rec.rung = rungDegradedTiling
		// Tiling degradation applies to newcomers on the proposed
		// pipeline; sessions already streaming (or already uniform) skip
		// to the QP rung. degrade re-reads the source, whose I/O error is
		// a panic.
		if sess.frame == 0 && sess.cfg.Mode == ModeProposed && !sess.cfg.DisableRetile {
			return true, true, guardSession(sess.ID, sess.degrade)
		}
	}
	switch {
	case sess.qpOffset < maxQPOffset:
		// From the next encoded frame on, every tile's QP and its
		// estimation key shift with the offset, so stage D1 prices the
		// degraded configuration the encoder will run. The offset never
		// steps below 0, even from a negative one a wire restored.
		rs.rec.rung++
		sess.qpOffset = max(0, min(sess.qpOffset+qpOffsetStep, maxQPOffset))
		return true, true, nil
	case !sess.rateHalved:
		// Frame-rate rung: the session is served every other GOP
		// round from now on. Its per-round demand is unchanged (the
		// allocator sees the same threads when it competes), but on
		// alternating rounds it is absent entirely, freeing its share
		// of the platform for the sessions it was crowding out.
		rs.rec.rung++
		sess.rateHalved = true
		return true, false, nil
	}
	return false, false, nil
}
