package core

import (
	"fmt"
)

// Session migration: the GOP-boundary handoff of a live session from one
// shard to another, the mechanism behind fleet elasticity (internal/serve
// drains a shard before removing it and re-homes its sessions).
//
// The protocol is three calls, all on the donor/target *Server:
//
//	Drain()           — the donor's serving loop stops at the next GOP
//	                    boundary (between rounds every session sits at
//	                    one) and Run returns with the sessions still
//	                    queued;
//	ExportSessions()  — every non-terminal session leaves the donor as a
//	                    SessionSnapshot (its record flips to
//	                    StateMigrated);
//	Import(snap)      — the target adopts the snapshot under a fresh
//	                    shard-local id, re-binding the session to the
//	                    target's per-class workload LUT.
//
// Handoff names the serving state explicitly — frame cursor, QP offset,
// tiling degradation, rate halving, queue bookkeeping, QoS identity —
// and is its only declaration; the snapshot pairs it with the live
// *Session for the heavyweight encoder state (the reconstructed reference
// frames, the QP adapter, the motion policy). In-process, ownership of the
// Session transfers with the snapshot and exactly one server drives it at
// any time, so the encoded bitstream continues bit-identically from where
// the donor stopped. Cross-process migration carries the same Handoff,
// encoder reference state beside it, in a SessionWire (wire.go) and
// re-binds its source on the receiving node.

// Handoff is the state a session carries between servers at a GOP
// boundary — in process inside a SessionSnapshot, across processes inside
// a SessionWire. Its JSON tags are the wire's: SessionWire embeds it, so
// encoding/json emits these fields in this order at the handoff's place.
type Handoff struct {
	// Class is the session's workload class — the routing key, and the
	// name of the per-class LUT the target re-binds the session to.
	Class string `json:"class"`
	// DonorID is the shard-local id the session had on the donor (ids do
	// not survive migration; Import assigns a fresh one).
	DonorID int `json:"donor_id"`
	// Frame is the next-frame cursor — always a GOP boundary (or the end
	// of the video).
	Frame int `json:"frame"`
	// QPOffset, Degraded and RateHalved mirror the admission ladder's
	// service-level degradations (the Session's qpOffset, degraded and
	// rateHalved); in process they ride inside the Session and are surfaced
	// here so the target's record (and tests) can see them without poking
	// the session, and Restore reapplies them to a rebuilt one.
	QPOffset   int  `json:"qp_offset"`
	Degraded   bool `json:"degraded"`
	RateHalved bool `json:"rate_halved"`
	// Demand is the session's core demand as the donor last saw it
	// (sched.Result.DemandCores, or the placement hint before the first
	// competed round). Import seeds the target's record with it so the
	// target's LoadReport reflects the adopted session's true weight
	// before it competes there.
	Demand int `json:"demand"`
	// Rung, Waited and SkipRound are the donor record's admission-ladder
	// bookkeeping: the highest rung applied, the consecutive rounds
	// waited after the ladder ran out, and whether the session owes a
	// sit-out round for rate halving. Import restores them so a migrated
	// session neither re-degrades from scratch nor forgets a pending
	// skip.
	Rung      int  `json:"rung"`
	Waited    int  `json:"waited"`
	SkipRound bool `json:"skip_round"`
	// Tenant and Priority carry the session's QoS identity ("" = the
	// default tenant; priority 0 = best effort) so a migrated or
	// failed-over session keeps its weighted core share and preemption
	// class on the target shard. Both are omitted from the wire at their
	// zero values — an optional addition under the wire's versioning
	// rules, so v1 encodings of default-tenant sessions are byte-unchanged.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
}

// SessionSnapshot is one session's exportable serving state, produced by
// ExportSessions at a GOP boundary and consumed by Import on the target
// shard.
type SessionSnapshot struct {
	// Session is the live session; ownership transfers with the snapshot
	// (the donor must not touch it again).
	Session *Session
	Handoff
}

// Drain asks the serving loop to stop at the next GOP boundary: Run
// returns (cleanly, with its report) before serving another round, with
// every non-terminal session still queued — ready for ExportSessions.
// Between rounds every session sits at a GOP boundary (a round serves
// whole GOPs), so draining never cuts a GOP in half. Safe from any
// goroutine; a server that is not running drains trivially.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.wake()
}

// isDraining reports whether Drain was requested.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ExportSessions removes every non-terminal session from the server and
// returns their snapshots in ascending donor-id order. Each exported
// record transitions to StateMigrated (observable through StateOf and
// the OnSessionState hook); the sessions themselves transfer to the
// caller, who must hand each to exactly one target's Import (or fail it
// via FailSession). It fails without exporting anything if a Run is
// active, or if any live session is stranded mid-GOP (only possible
// after a cancelled Run, whose server must not be reused anyway).
func (s *Server) ExportSessions() ([]*SessionSnapshot, error) {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: ExportSessions while Run is active")
	}
	// Validate before mutating: an export is all-or-nothing.
	for id, rec := range s.records {
		if rec.state == StateQueued && !rec.sess.atGOPBoundary() {
			s.mu.Unlock()
			return nil, fmt.Errorf("core: session %d is mid-GOP (frame %d) — cannot export", id, rec.sess.frame)
		}
	}
	var snaps []*SessionSnapshot
	for id, rec := range s.records {
		if rec.state == StateQueued {
			snaps = append(snaps, s.exportLocked(id))
		}
	}
	s.mu.Unlock()
	for _, snap := range snaps {
		s.notifyState(snap.DonorID, StateMigrated, nil)
	}
	return snaps, nil
}

// snapshot names record id's exportable serving state. It reads the live
// session, so callers hold s.mu and honour the export contract: no encode
// of the session in flight.
func (s *Server) snapshot(id int) *SessionSnapshot {
	rec := s.records[id]
	sess := rec.sess
	return &SessionSnapshot{Session: sess, Handoff: Handoff{
		Class:      sess.src.Class(),
		DonorID:    id,
		Frame:      sess.frame,
		QPOffset:   sess.qpOffset,
		Degraded:   sess.degraded,
		RateHalved: sess.rateHalved,
		Demand:     rec.lastDemand,
		Rung:       rec.rung,
		Waited:     rec.waited,
		SkipRound:  rec.skipRound,
		Tenant:     rec.tenant,
		Priority:   rec.priority,
	}}
}

// exportLocked detaches queued session id from the server: its record
// flips to StateMigrated and the session's ownership leaves with the
// snapshot. Callers hold s.mu and notify the transition after unlocking.
func (s *Server) exportLocked(id int) *SessionSnapshot {
	snap := s.snapshot(id)
	s.records[id].state = StateMigrated
	s.records[id].sess = nil // ownership transferred; a stale reference is a bug
	return snap
}

// ExportSession removes one queued session from the server and returns
// its snapshot — the single-session, Drain-less narrow path behind
// proactive hot-shard rebalancing (internal/serve): a hot shard sheds a
// session to an idle peer without stopping its own serving loop. Unlike
// ExportSessions it may be called while a Run is active, but then only
// from the serving goroutine itself between rounds (in practice: the
// ServerConfig.OnRound hook), where every session sits at a GOP boundary
// and no encode is in flight; from any other goroutine it would race the
// loop. The exported record transitions to StateMigrated and the session
// transfers to the caller exactly as with ExportSessions: hand it to one
// target's Import, or fail it via FailSession.
func (s *Server) ExportSession(id int) (*SessionSnapshot, error) {
	s.mu.Lock()
	if id < 0 || id >= len(s.records) {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: no session %d", id)
	}
	rec := s.records[id]
	if rec.state != StateQueued {
		st := rec.state
		s.mu.Unlock()
		return nil, fmt.Errorf("core: session %d is %v, not exportable", id, st)
	}
	if !rec.sess.atGOPBoundary() {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: session %d is mid-GOP (frame %d) — cannot export", id, rec.sess.frame)
	}
	snap := s.exportLocked(id)
	s.mu.Unlock()
	s.notifyState(id, StateMigrated, nil)
	return snap, nil
}

// Import adopts a session exported from another shard: the session gets
// a fresh shard-local id, is re-bound to this server's per-class
// workload LUT (its estimates now come from — and its observations feed
// — the target's store), and joins the arrival queue with its
// admission-ladder state intact. Import works on a Closed server: Close
// seals the queue against *new* sessions, but a migrated session was
// already admitted to the service and only changes shards. Safe from any
// goroutine, including while Run is serving.
func (s *Server) Import(snap *SessionSnapshot) (*Session, error) {
	if snap == nil || snap.Session == nil {
		return nil, fmt.Errorf("core: nil session snapshot")
	}
	sess := snap.Session
	if !sess.atGOPBoundary() {
		return nil, fmt.Errorf("core: snapshot of session mid-GOP (frame %d)", sess.frame)
	}
	s.mu.Lock()
	lut := s.store.ForClass(snap.Class)
	sess.adopt(len(s.records), lut)
	s.records = append(s.records, &sessionRecord{
		sess:       sess,
		rung:       snap.Rung,
		waited:     snap.Waited,
		skipRound:  snap.SkipRound,
		imported:   true,
		lastDemand: snap.Demand,
		tenant:     snap.Tenant,
		priority:   snap.Priority,
	})
	s.mu.Unlock()
	s.wake()
	s.notifyState(sess.ID, StateQueued, nil)
	return sess, nil
}

// FailSession departs one session as StateFailed with err — the
// migration layer's dead-letter path for a snapshot no live shard would
// accept. It applies to queued sessions and to exported (StateMigrated)
// records whose snapshot could not be placed; terminal sessions are left
// alone (an error reports the refusal). For a queued session it must not
// race a serving goroutine (like Abort, it fails while a Run is active);
// a migrated record is already terminal for this shard — its session
// pointer is gone and the serving loop skips it — so flipping it to
// failed is safe from any goroutine at any time, which is what lets the
// rebalancer dead-letter an unplaceable snapshot without stopping the
// donor's loop.
func (s *Server) FailSession(id int, err error) error {
	if err == nil {
		err = fmt.Errorf("core: session failed")
	}
	s.mu.Lock()
	if id < 0 || id >= len(s.records) {
		s.mu.Unlock()
		return fmt.Errorf("core: no session %d", id)
	}
	rec := s.records[id]
	switch {
	case rec.state == StateMigrated:
		// Dead-lettering an exported record touches no live session state.
	case rec.state == StateQueued && !s.running:
	case rec.state == StateQueued:
		s.mu.Unlock()
		return fmt.Errorf("core: FailSession while Run is active")
	default:
		st := rec.state
		s.mu.Unlock()
		return fmt.Errorf("core: session %d is %v, not failable", id, st)
	}
	rec.state = StateFailed
	rec.err = err
	s.mu.Unlock()
	s.notifyState(id, StateFailed, err)
	return nil
}
