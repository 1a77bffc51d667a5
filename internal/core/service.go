package core

import (
	"context"
	"fmt"

	"repro/internal/mpsoc"
)

// ServiceReport is a snapshot of the server's ledger: the service-level
// view the ROADMAP's heavy-traffic north star cares about, where
// GOPOutcome is the per-round view. It is cumulative over the server's
// life — every round any serving method settled, every session ever
// registered — and holds no per-round state, so a server can run
// indefinitely without its report growing.
type ServiceReport struct {
	// Rounds is the number of GOP rounds settled.
	Rounds int
	// Submitted counts every session that entered the arrival queue.
	Submitted int
	// Completed, Rejected and Failed list the session ids per terminal
	// state (ascending). Sessions still queued appear in none of them.
	Completed, Rejected, Failed []int
	// Migrated lists sessions that left this shard through
	// ExportSessions (ascending donor ids); they live on under new ids
	// on the shards that imported them.
	Migrated []int
	// Imported counts sessions adopted from other shards (Import) —
	// they are included in Submitted, so fleet-wide unique sessions are
	// the sum over shards of Submitted − Imported.
	Imported int
	// FramesEncoded and GOPReports count the work actually delivered
	// across all rounds; a lossless service has GOPReports equal to the
	// sum of its completed sessions' GOP counts.
	FramesEncoded int
	GOPReports    int
	// Energy aggregates the per-round platform simulations: total energy,
	// deadline misses, carry-over and peak power.
	Energy mpsoc.Totals
	// Errors holds the terminal error of every failed session.
	Errors map[int]error
}

// MeanEstimateErr returns the tile-weighted mean relative stage-D1
// estimation error over the outcomes with round index ≥ fromRound (0
// covers them all) — whichever rounds the caller chose to keep: a
// RingSink's retained window, or everything an OnRound hook collected.
// The second return is the number of measured tiles behind the mean;
// 0 tiles yields (0, 0).
func MeanEstimateErr(outs []*GOPOutcome, fromRound int) (float64, int) {
	var sum float64
	var tiles int
	for _, out := range outs {
		if out.Round >= fromRound && out.EstimateTiles > 0 {
			sum += out.EstimateErr * float64(out.EstimateTiles)
			tiles += out.EstimateTiles
		}
	}
	if tiles == 0 {
		return 0, 0
	}
	return sum / float64(tiles), tiles
}

// Report snapshots the server's ledger: the settled-round counters and
// the lifecycle state of every session registered so far. Safe from any
// goroutine, at any time — including while Run is serving.
func (s *Server) Report() *ServiceReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &ServiceReport{
		Rounds:        s.rounds,
		FramesEncoded: s.frames,
		GOPReports:    s.gopReports,
		Energy:        s.energy,
		Errors:        make(map[int]error),
	}
	for id, rec := range s.records {
		if rec.imported {
			r.Imported++
		}
		r.Book(id, rec.state, rec.err)
	}
	return r
}

// Book enters one session into the report: counted as submitted, and
// listed under its terminal state if it reached one (err is the terminal
// error of a failed session). Callers book ids in ascending order. It is
// what keeps the ledger view (Server.Report) and an event-derived view
// (serve.RingSink) classifying sessions identically.
func (r *ServiceReport) Book(id int, state SessionState, err error) {
	r.Submitted++
	switch state {
	case StateCompleted:
		r.Completed = append(r.Completed, id)
	case StateRejected:
		r.Rejected = append(r.Rejected, id)
	case StateFailed:
		r.Failed = append(r.Failed, id)
		r.Errors[id] = err
	case StateMigrated:
		r.Migrated = append(r.Migrated, id)
	}
}

// hasServable reports whether any session is waiting for service.
func (s *Server) hasServable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range s.records {
		if rec.state == StateQueued && !rec.sess.Finished() {
			return true
		}
	}
	return false
}

// isClosed reports whether the arrival queue was closed.
func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Run drives the online service: it drains the arrival queue (Submit),
// serves GOP rounds over the live session set — sessions join mid-service
// and depart on completion, failure, admission timeout or cancellation —
// and blocks while the queue is empty but still open. It returns when the
// server has been Closed and every submitted session reached a terminal
// state, when ctx is cancelled, when Drain asks it to stop at the next
// GOP boundary (sessions stay queued, ready for ExportSessions), or on a
// round-level error (allocator or platform failure, or nobody admitted
// with the admission ladder disabled). Whatever the exit, the report is
// the ledger as it stands (Server.Report): a restarted Run carries on
// from it rather than starting a new one.
//
// A single session's encode failure does not stop the service: the
// session departs as StateFailed and its error is collected; the other
// sessions keep streaming.
//
// Run must be the only serving goroutine: it fails if another Run is
// active, and ServeGOP/ServeAll must not be called while it runs. Submit
// and Close are safe from any goroutine, including ServerConfig.OnRound.
func (s *Server) Run(ctx context.Context) (*ServiceReport, error) {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: Run already active")
	}
	s.running = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running = false
		s.mu.Unlock()
	}()
	err := s.serve(ctx)
	return s.Report(), err
}

// serve is Run's loop; nil means a clean stop (closed and drained, or
// Drain).
func (s *Server) serve(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.isDraining() {
			// Drain: stop at the GOP boundary with the sessions still
			// queued — the caller exports them (see migrate.go).
			return nil
		}
		if !s.hasServable() {
			if s.isClosed() {
				// Re-check under the arrival race: a Submit may have
				// landed between the two tests.
				if !s.hasServable() {
					return nil
				}
				continue
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-s.arrival:
			}
			continue
		}

		out, _, err := s.serveRound(ctx)
		if err != nil {
			return err
		}
		// Failed sessions have departed (serveRound set their states and
		// stored their errors); service continues for the rest.
		if out == nil {
			continue // every live session failed before allocation: no round was served
		}
		if s.cfg.OnRound != nil {
			s.cfg.OnRound(out)
		}
		if len(out.AdmittedUsers) == 0 && len(out.TimedOut) == 0 && !s.cfg.Admission.Enabled {
			return fmt.Errorf("core: no user admitted in round %d — demands exceed platform (enable the admission ladder to shed load)", out.Round)
		}
	}
}
