package serve

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// The fleet control loop, part 2: proactive rebalancing (DESIGN.md §7).
// Resize migrates sessions only off removed shards; a hot shard inside a
// *stable* fleet — class routing piled one popular class onto it — never
// shed load. WithRebalance closes that gap with the same GOP-boundary
// handoff, minus the drain: when a shard's demand-normalized utilization
// (core.LoadReport) exceeds the fleet mean by a configurable factor for K
// consecutive rounds, it hands sessions to less-utilized peers through the
// narrow core.Server.ExportSession path, right after its round settles —
// the one moment every session on the shard sits at a GOP boundary with no
// encode in flight, and the one goroutine allowed to touch them is the
// very one running the check. Sessions are picked by how well their core
// demand closes the donor's overload gap, not merely by arrival order, so
// one heavy session can do the work of several light ones. The rebalanced
// session's bitstream continues bit-identically on the peer (the migration
// layer's invariant).

// RebalanceConfig parametrizes proactive hot-shard rebalancing
// (WithRebalance).
type RebalanceConfig struct {
	// Factor is the imbalance trigger: a shard is hot when its
	// demand-normalized utilization exceeds Factor × the mean utilization
	// of the alive shards. Must exceed 1 (default 1.5).
	Factor float64
	// Windows is the hysteresis: that many consecutive hot rounds before
	// the shard sheds, with any cool round resetting the count
	// (default 2).
	Windows int
}

// shedKey identifies one rebalance LUT warm-handoff: the adopting shard
// and the workload class whose tables were merged into it.
type shedKey struct {
	shard int
	class string
}

// WithRebalance makes hot shards shed sessions to idle peers while the
// fleet keeps its size: after every settled round the fleet compares the
// shard's utilization against the fleet mean, and a shard hot for
// cfg.Windows consecutive rounds hands demand-picked sessions to the
// least-utilized shards at the GOP boundary (OnSessionRebalanced reports
// each hop). Rebalancing and Resize exclude each other, so a shedding
// shard can never race a drain.
func WithRebalance(cfg RebalanceConfig) Option {
	return func(o *options) { o.rebalance = &cfg }
}

// validateRebalance applies defaults. Called from New.
func validateRebalance(cfg *RebalanceConfig) error {
	if cfg.Factor == 0 {
		cfg.Factor = 1.5
	}
	if !(cfg.Factor > 1) { // NaN-safe
		return fmt.Errorf("serve: rebalance factor %v must exceed 1", cfg.Factor)
	}
	if cfg.Windows == 0 {
		cfg.Windows = 2
	}
	if cfg.Windows < 0 {
		return fmt.Errorf("serve: rebalance windows %d", cfg.Windows)
	}
	return nil
}

// maybeRebalance runs the hot-shard check for one settled round of shard
// s, on s's serving goroutine (the fleet's OnRound wire). It never blocks
// on a resize: while one is in flight the check just stands down — the
// resize is already rehoming sessions.
func (f *Fleet) maybeRebalance(s *shardState) {
	cfg := f.opts.rebalance
	if cfg == nil {
		return
	}
	reports := f.Loads()
	live, meanUtil := 0, 0.0
	for _, r := range reports {
		if r.Alive {
			live++
			meanUtil += r.Util
		}
	}
	if live > 0 {
		meanUtil /= float64(live)
	}
	donor := reports[s.index]
	// Two queued sessions minimum: a single session is this shard's to
	// serve no matter how heavy it prices — moving it just relocates the
	// hot spot.
	hot := live >= 2 && donor.Sessions >= 2 && meanUtil > 0 && donor.Util > cfg.Factor*meanUtil

	f.mu.Lock()
	if !hot || f.resizing || !s.routable() {
		// A cool round — or one we must sit out — resets the hysteresis.
		delete(f.hotRuns, s.index)
		f.mu.Unlock()
		return
	}
	f.hotRuns[s.index]++
	if f.hotRuns[s.index] < cfg.Windows {
		f.mu.Unlock()
		return
	}
	delete(f.hotRuns, s.index)
	// Claim a rebalance slot: Resize waits for in-flight rebalances, and
	// no new one starts while a resize is pending — the mutual exclusion
	// that keeps a shed target from draining away mid-handoff.
	f.rebalancing++
	f.mu.Unlock()

	f.shedLoad(s, donor, meanUtil)

	f.mu.Lock()
	f.rebalancing--
	f.cond.Broadcast()
	f.mu.Unlock()
}

// shedLoad moves sessions off the donor until its summed core demand is
// back at the fleet-mean utilization (or moving would no longer reduce the
// imbalance). Victims are picked by demand: the queued session whose core
// demand comes closest to the remaining overload gap goes first (ties to
// the newest id — least serving history, least disturbance to the donor's
// warm working set), so a single heavy session is preferred over shedding
// many light ones. Runs on the donor's serving goroutine between rounds —
// the ExportSession contract.
func (f *Fleet) shedLoad(s *shardState, donor core.LoadReport, meanUtil float64) {
	// The overload gap in cores: what the donor carries beyond the
	// fleet-mean utilization of its own capacity. At least one move — the
	// hot trigger already established the imbalance.
	gap := donor.DemandCores - int(math.Ceil(meanUtil*float64(donor.CapacityCores)))
	if gap < 1 {
		gap = 1
	}

	// Snapshot the queued sessions and their demands once; exports below
	// are the only thing settling them mid-loop.
	type victim struct{ id, demand int }
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
		// Best gap-closer: minimal |gap − demand|, ties to the newest id.
		pick := -1
		for i, v := range queued {
			if pick < 0 {
				pick = i
				continue
			}
			di, dp := abs(gap-v.demand), abs(gap-queued[pick].demand)
			if di < dp || (di == dp && v.id > queued[pick].id) {
				pick = i
			}
		}
		v := queued[pick]
		queued = append(queued[:pick], queued[pick+1:]...)

		target, trep := f.pickRebalanceTarget(s.index)
		if target == nil {
			return // donor is the only live shard
		}
		// Move only if it strictly reduces the imbalance: the victim on
		// the target must leave it less utilized than the donor is now.
		donorRep := s.srv.LoadReport()
		if trep.CapacityCores <= 0 || donorRep.CapacityCores <= 0 {
			return
		}
		targetAfter := float64(trep.DemandCores+v.demand) / float64(trep.CapacityCores)
		if targetAfter >= donorRep.Util {
			return // nobody meaningfully less utilized is left
		}
		snap, err := s.srv.ExportSession(v.id)
		if err != nil {
			continue // settled since the snapshot of queued ids; skip it
		}
		// Warm handoff: the class's calibrated LUT rides along so the
		// session's first post-rebalance round estimates from the donor's
		// tables instead of cold ones — once per (target, class) for the
		// fleet's lifetime, because the store merge is additive and a hot
		// shard sheds repeatedly: re-merging would pile duplicate history
		// into the target's histograms and calibration EWMA every trigger.
		f.mu.Lock()
		h := shedKey{target.index, snap.Class}
		doMerge := !f.shedMerged[h]
		f.shedMerged[h] = true
		f.mu.Unlock()
		if doMerge {
			target.srv.Store().MergeClass(s.srv.Store(), snap.Class)
		}
		if _, ierr := f.adopt(snap, s.index, []int{target.index}, Sink.OnSessionRebalanced); ierr != nil {
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

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// pickRebalanceTarget returns the least-utilized routable shard other than
// the donor (ties to the lowest index), with its load report; nil when the
// donor is the only live shard.
func (f *Fleet) pickRebalanceTarget(donor int) (*shardState, core.LoadReport) {
	f.mu.Lock()
	shards := append([]*shardState(nil), f.shards...)
	routable := make([]bool, len(shards))
	for i, s := range shards {
		routable[i] = s.routable()
	}
	f.mu.Unlock()
	var best *shardState
	var bestRep core.LoadReport
	for i, t := range shards {
		if i == donor || !routable[i] {
			continue
		}
		if r := t.srv.LoadReport(); best == nil || r.Util < bestRep.Util {
			best, bestRep = t, r
		}
	}
	return best, bestRep
}
