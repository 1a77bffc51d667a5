// Package sched implements the paper's thread allocation and DVFS policy
// (Algorithm 2) together with the state-of-the-art baseline it is compared
// against ([19], Khan et al., IEEE TVLSI 2016).
//
// The scheduling model follows the paper: time is divided into slots of
// 1/FPS seconds; every admitted user contributes one thread per tile of
// its current frame; a thread's cost is its estimated CPU time at the
// maximum frequency; threads of different users may share a core as long
// as the core's accumulated CPU time stays within the slot.
package sched

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/mpsoc"
)

// Thread is one schedulable tile-encoding task.
type Thread struct {
	// User identifies the owning transcoding session.
	User int
	// Tile is the tile index within the user's frame.
	Tile int
	// TimeFmax is the estimated CPU time per frame at maximum frequency.
	TimeFmax time.Duration
}

// UserDemand aggregates one user's threads for the current GOP.
type UserDemand struct {
	User    int
	Threads []Thread
	// Priority is the user's QoS priority class (0 = best effort; higher
	// preempts). Admission considers priority before core demand, so a
	// higher-priority user displaces best-effort users on a full platform
	// instead of queueing behind them — the serving layer's admission
	// ladder then pushes the displaced users down the degradation rungs
	// (priority preemption, DESIGN.md §9). All-zero priorities reproduce
	// the paper's pure ascending-demand order exactly.
	Priority int
}

// totalTime returns the summed CPU time of the user's threads.
func (u UserDemand) totalTime() time.Duration {
	var sum time.Duration
	for _, th := range u.Threads {
		sum += th.TimeFmax
	}
	return sum
}

// CoresNeeded implements line 1 of Algorithm 2: the minimum number of
// cores for user i is ceil(Σ_j T_fmax,j · FPS) — the user's utilization in
// core units.
func (u UserDemand) CoresNeeded(fps float64) int {
	util := u.totalTime().Seconds() * fps
	n := int(math.Ceil(util - 1e-9))
	if n < 1 {
		n = 1
	}
	return n
}

// Assignment records where one thread landed.
type Assignment struct {
	Thread Thread
	Core   int
}

// Result is the outcome of an allocation policy.
type Result struct {
	// Admitted lists the admitted user ids (ascending).
	Admitted []int
	// Rejected lists users that did not fit (ascending).
	Rejected []int
	// Assignments covers every thread of every admitted user.
	Assignments []Assignment
	// Plans has one entry per platform core, ready for
	// mpsoc.Platform.SimulateSlot.
	Plans []mpsoc.CorePlan
	// CoresUsed counts cores with non-zero load.
	CoresUsed int
	// UserCores maps each admitted user to the number of distinct cores
	// its threads were assigned to. This is the per-session parallelism
	// the allocation actually planned, and what the serving loop passes
	// to the encoder as that session's tile-worker budget.
	UserCores map[int]int
	// DemandCores reports every candidate user's core demand as the
	// admission step saw it (Algorithm 2 line 1 for the content-aware
	// family; the thread count for the baseline's one-thread-per-core
	// rule). It covers rejected users too, so the serving loop's admission
	// ladder and service reports can explain *why* a user did not fit.
	DemandCores map[int]int
}

// DemandOf computes every candidate user's core demand (Algorithm 2
// line 1) without running admission or allocation: ceil(Σ_j T_fmax,j ·
// FPS) per user, never less than 1. It is the pre-admission load signal —
// the serving layer prices a session's threads through it to decide
// *where* a session should live before any allocator has seen it, and a
// shard's utilization is its queued sessions' demands over its cores.
func DemandOf(in Input) (map[int]int, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	out := make(map[int]int, len(in.Users))
	for _, u := range in.Users {
		out[u.User] = u.CoresNeeded(in.FPS)
	}
	return out, nil
}

// CoresOf returns the number of distinct cores assigned to a user,
// never less than 1 so it can be used directly as a worker budget.
func (r *Result) CoresOf(user int) int {
	if n := r.UserCores[user]; n > 1 {
		return n
	}
	return 1
}

// fillUserCores derives UserCores from the final thread assignments.
func (r *Result) fillUserCores() {
	r.UserCores = make(map[int]int, len(r.Admitted))
	seen := make(map[[2]int]bool, len(r.Assignments))
	for _, a := range r.Assignments {
		k := [2]int{a.Thread.User, a.Core}
		if !seen[k] {
			seen[k] = true
			r.UserCores[a.Thread.User]++
		}
	}
}

// Input bundles the allocation problem.
type Input struct {
	Platform *mpsoc.Platform
	// FPS defines the slot length 1/FPS.
	FPS float64
	// Users are the candidate sessions (the queue, possibly oversized).
	Users []UserDemand
}

// validate reports input errors.
func (in Input) validate() error {
	if in.Platform == nil {
		return fmt.Errorf("sched: nil platform")
	}
	if err := in.Platform.Validate(); err != nil {
		return err
	}
	if in.FPS <= 0 {
		return fmt.Errorf("sched: non-positive FPS %v", in.FPS)
	}
	seen := make(map[int]bool, len(in.Users))
	for _, u := range in.Users {
		if seen[u.User] {
			return fmt.Errorf("sched: duplicate user id %d", u.User)
		}
		seen[u.User] = true
		if len(u.Threads) == 0 {
			return fmt.Errorf("sched: user %d has no threads", u.User)
		}
		for _, th := range u.Threads {
			if th.TimeFmax < 0 {
				return fmt.Errorf("sched: user %d tile %d negative time", u.User, th.Tile)
			}
			if th.User != u.User {
				return fmt.Errorf("sched: thread user %d inside demand of user %d", th.User, u.User)
			}
		}
	}
	return nil
}

// slotOf returns the slot duration.
func (in Input) slotOf() time.Duration {
	return time.Duration(float64(time.Second) / in.FPS)
}

// AllocateContentAware runs Algorithm 2:
//
//  1. Compute each user's minimum core demand N_core^i (line 1).
//  2. Admit users in ascending order of demand until the platform's cores
//     are exhausted (line 2) — this maximizes the number of users served.
//  3. Allocate every admitted thread to a core minimizing the distance
//     |Cap − (Load_k + T_j)| where Cap is the running maximum core load
//     clamped to the slot (lines 3–15). Candidate cores are limited to the
//     admitted core budget N_core^U (line 4 iterates k = 1 : N_core^U) —
//     this is what densifies the packing onto the minimum number of cores
//     instead of balancing across the whole machine.
//  4. DVFS (lines 16–24): cores whose load fits the slot execute at fmax
//     and spend their slack at the minimum frequency; overloaded cores run
//     the whole slot at fmax and carry the residue into the next slot.
func AllocateContentAware(in Input) (*Result, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	slot := in.slotOf()
	nc := in.Platform.Cores
	res := &Result{Plans: make([]mpsoc.CorePlan, nc)}

	// Admission (lines 1–2): ascending core demand; the pool comes back in
	// longest-processing-time order, which makes the distance-to-cap rule
	// deterministic and well balanced.
	pool := admitAscending(in, res)

	// Candidate core budget N_core^U (line 4): the sum of the admitted
	// users' core demands — allocation densifies onto these cores only.
	budget := 0
	for _, id := range res.Admitted {
		budget += res.DemandCores[id]
	}
	if budget < 1 {
		budget = 1
	}
	if budget > nc {
		budget = nc
	}

	// Thread allocation (lines 3–15).
	loads := make([]time.Duration, nc)
	for _, th := range pool {
		// Dynamic cap (lines 5–9).
		cap := loads[0]
		for _, l := range loads[1:budget] {
			if l > cap {
				cap = l
			}
		}
		if cap > slot {
			cap = slot
		}
		// Distance minimization (lines 10–12), preferring, on ties, the
		// lowest-numbered core.
		best, bestDist := -1, time.Duration(math.MaxInt64)
		for k := 0; k < budget; k++ {
			cand := loads[k] + th.TimeFmax
			dist := cand - cap
			if dist < 0 {
				dist = -dist
			}
			// Never overflow a core beyond the slot if an alternative
			// exists: overfull cores miss the frame deadline.
			if cand > slot {
				dist += cand - slot + slot // heavy penalty, still ordered
			}
			if dist < bestDist {
				best, bestDist = k, dist
			}
		}
		loads[best] += th.TimeFmax
		res.Assignments = append(res.Assignments, Assignment{Thread: th, Core: best})
	}

	// DVFS (lines 16–24).
	finalizeDVFS(in.Platform, loads, slot, res)
	return res, nil
}

// finalizeDVFS fills res.Plans, CoresUsed and UserCores from per-core
// loads following lines 16–24 of Algorithm 2: work executes at fmax, slack
// idles at fmin, and cores with no work at all are power-gated for the slot.
func finalizeDVFS(p *mpsoc.Platform, loads []time.Duration, slot time.Duration, res *Result) {
	res.fillUserCores()
	for k, load := range loads {
		plan := mpsoc.CorePlan{
			LoadAtFmax: load,
			BusyLevel:  p.MaxLevel(),
			IdleLevel:  p.MinLevel(),
		}
		if load > 0 {
			res.CoresUsed++
			if load < slot {
				// One switch down to fmin for the slack, one back up for
				// the next slot's work.
				plan.Transitions = 2
			}
		} else {
			plan.Gated = true
		}
		res.Plans[k] = plan
	}
}

// allocateBaseline implements the allocation of [19] (Khan et al.): the
// workload-balancing tiler sizes each tile to fill one core's capacity, so
// exactly one thread runs per core, and all active cores operate at the
// maximum frequency for the whole slot (the baseline re-tiles only when
// every core is already pinned at the minimum or maximum frequency, so in
// the steady state of a saturated server its cores never leave fmax).
// Admission packs users while their thread counts fit the core budget.
func allocateBaseline(in Input) (*Result, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	nc := in.Platform.Cores
	res := &Result{Plans: make([]mpsoc.CorePlan, nc)}

	// Admit in ascending thread-count order (the analogue of line 2), in
	// the same preemption-enabling order as Algorithm 2; each admitted
	// thread takes the next free core.
	next := 0
	for _, u := range admit(in, res, func(u UserDemand) int { return len(u.Threads) }) {
		for _, th := range u.Threads {
			res.Assignments = append(res.Assignments, Assignment{Thread: th, Core: next})
			res.Plans[next].LoadAtFmax += th.TimeFmax
			next++
		}
	}
	res.fillUserCores()

	for k := range res.Plans {
		res.Plans[k].BusyLevel = in.Platform.MaxLevel()
		// Active cores stay at fmax even while idle (the baseline's power
		// penalty); cores with no tile are power-gated — both approaches
		// may gate unused cores, so the comparison stays fair.
		if res.Plans[k].LoadAtFmax > 0 {
			res.Plans[k].IdleLevel = in.Platform.MaxLevel()
			res.CoresUsed++
		} else {
			res.Plans[k].IdleLevel = in.Platform.MinLevel()
			res.Plans[k].Gated = true
		}
	}
	return res, nil
}

// admit is the one admission order of both policies: higher priority
// classes first, then ascending core demand, then user id, each user
// admitted while its demand fits the cores the users before it left. It
// records every user's demand in res.DemandCores and the outcome in
// res.Admitted/Rejected (ascending), and returns the admitted users in
// admission order.
func admit(in Input, res *Result, demand func(UserDemand) int) []UserDemand {
	order := make([]int, len(in.Users))
	res.DemandCores = make(map[int]int, len(in.Users))
	for i, u := range in.Users {
		order[i] = i
		res.DemandCores[u.User] = demand(u)
	}
	sort.SliceStable(order, func(a, b int) bool {
		ua, ub := in.Users[order[a]], in.Users[order[b]]
		if ua.Priority != ub.Priority {
			return ua.Priority > ub.Priority
		}
		if da, db := res.DemandCores[ua.User], res.DemandCores[ub.User]; da != db {
			return da < db
		}
		return ua.User < ub.User
	})
	budget := in.Platform.Cores
	var admitted []UserDemand
	for _, idx := range order {
		u := in.Users[idx]
		if need := res.DemandCores[u.User]; need <= budget {
			budget -= need
			res.Admitted = append(res.Admitted, u.User)
			admitted = append(admitted, u)
		} else {
			res.Rejected = append(res.Rejected, u.User)
		}
	}
	sort.Ints(res.Admitted)
	sort.Ints(res.Rejected)
	return admitted
}

// admitAscending is Algorithm 2's admission step (admit by ascending core
// demand); it returns the admitted thread pool in LPT order.
func admitAscending(in Input, res *Result) []Thread {
	var pool []Thread
	for _, u := range admit(in, res, func(u UserDemand) int { return u.CoresNeeded(in.FPS) }) {
		pool = append(pool, u.Threads...)
	}
	sort.SliceStable(pool, func(a, b int) bool {
		if pool[a].TimeFmax != pool[b].TimeFmax {
			return pool[a].TimeFmax > pool[b].TimeFmax
		}
		if pool[a].User != pool[b].User {
			return pool[a].User < pool[b].User
		}
		return pool[a].Tile < pool[b].Tile
	})
	return pool
}
