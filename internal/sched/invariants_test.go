package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/mpsoc"
)

// invariantPolicies lists the two shipped allocators, and two test-local
// placements (placeWith), with the admission rule each is supposed to
// follow, so one table drives all cross-allocator checks.
var invariantPolicies = []struct {
	name     string
	alloc    func(Input) (*Result, error)
	ordering string // "cores" (ascending core demand) or "threads" (ascending thread count)
}{
	{"content-aware", AllocateContentAware, "cores"},
	{"baseline", allocateBaseline, "threads"},
	{"greedy", placeWith(func(_ int, loads []time.Duration) int {
		best := 0
		for k, l := range loads {
			if l < loads[best] {
				best = k
			}
		}
		return best
	}), "cores"},
	{"round-robin", placeWith(func(i int, loads []time.Duration) int { return i % len(loads) }), "cores"},
}

// placeWith is a test fixture: Algorithm 2's admission and DVFS steps
// around a different core choice. The two placements above spread load in
// ways the densifying rule never does — every core opened, threads dealt
// onto cores already past the slot — so they drive admitAscending,
// finalizeDVFS and the checker below through load vectors the shipped
// policies do not produce.
func placeWith(pick func(i int, loads []time.Duration) int) func(Input) (*Result, error) {
	return func(in Input) (*Result, error) {
		if err := in.validate(); err != nil {
			return nil, err
		}
		res := &Result{Plans: make([]mpsoc.CorePlan, in.Platform.Cores)}
		loads := make([]time.Duration, in.Platform.Cores)
		for i, th := range admitAscending(in, res) {
			k := pick(i, loads)
			loads[k] += th.TimeFmax
			res.Assignments = append(res.Assignments, Assignment{Thread: th, Core: k})
		}
		finalizeDVFS(in.Platform, loads, in.slotOf(), res)
		return res, nil
	}
}

// randomInput builds a randomized but reproducible allocation problem.
func randomInput(rng *rand.Rand) Input {
	cores := []int{2, 4, 8, 32}[rng.Intn(4)]
	p := mpsoc.XeonE5_2667V4()
	p.Cores = cores
	users := rng.Intn(10) + 1
	in := Input{Platform: p, FPS: []float64{24, 30}[rng.Intn(2)]}
	for u := 0; u < users; u++ {
		d := UserDemand{User: u}
		tiles := rng.Intn(8) + 1
		for t := 0; t < tiles; t++ {
			d.Threads = append(d.Threads, Thread{
				User: u, Tile: t,
				TimeFmax: time.Duration(rng.Intn(30_000)) * time.Microsecond,
			})
		}
		in.Users = append(in.Users, d)
	}
	return in
}

// expectedAdmission replays the policy's documented admission rule: sort
// by demand (core units or thread count) with user id as tie-break, then
// admit the greedy prefix that fits the budget.
func expectedAdmission(in Input, ordering string) (admitted, rejected []int) {
	type cand struct{ user, demand int }
	var cs []cand
	for _, u := range in.Users {
		switch ordering {
		case "cores":
			cs = append(cs, cand{u.User, u.CoresNeeded(in.FPS)})
		case "threads":
			cs = append(cs, cand{u.User, len(u.Threads)})
		}
	}
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].demand != cs[b].demand {
			return cs[a].demand < cs[b].demand
		}
		return cs[a].user < cs[b].user
	})
	budget := in.Platform.Cores
	for _, c := range cs {
		if c.demand <= budget {
			budget -= c.demand
			admitted = append(admitted, c.user)
		} else {
			rejected = append(rejected, c.user)
		}
	}
	sort.Ints(admitted)
	sort.Ints(rejected)
	return
}

func checkInvariants(t *testing.T, in Input, res *Result, ordering string) {
	t.Helper()
	slot := in.slotOf()
	byUser := make(map[int]UserDemand, len(in.Users))
	for _, u := range in.Users {
		byUser[u.User] = u
	}

	// Admitted ∪ Rejected partitions the input, both sorted.
	if len(res.Admitted)+len(res.Rejected) != len(in.Users) {
		t.Fatalf("admitted %v + rejected %v do not cover %d users", res.Admitted, res.Rejected, len(in.Users))
	}
	if !sort.IntsAreSorted(res.Admitted) || !sort.IntsAreSorted(res.Rejected) {
		t.Fatalf("unsorted outcome: admitted %v rejected %v", res.Admitted, res.Rejected)
	}
	for _, id := range res.Rejected {
		if containsID(res.Admitted, id) {
			t.Fatalf("user %d both admitted and rejected", id)
		}
	}

	// The admitted set matches the policy's documented prefix rule.
	wantAdm, wantRej := expectedAdmission(in, ordering)
	if fmt.Sprint(res.Admitted) != fmt.Sprint(wantAdm) || fmt.Sprint(res.Rejected) != fmt.Sprint(wantRej) {
		t.Fatalf("admission differs from policy: got %v/%v, want %v/%v",
			res.Admitted, res.Rejected, wantAdm, wantRej)
	}

	// Every admitted thread assigned exactly once, none of a rejected
	// user's, and only to real cores.
	seen := make(map[[2]int]int)
	loads := make([]time.Duration, in.Platform.Cores)
	for _, a := range res.Assignments {
		if a.Core < 0 || a.Core >= in.Platform.Cores {
			t.Fatalf("assignment to core %d outside the platform", a.Core)
		}
		if !containsID(res.Admitted, a.Thread.User) {
			t.Fatalf("rejected user %d has an assignment", a.Thread.User)
		}
		seen[[2]int{a.Thread.User, a.Thread.Tile}]++
		loads[a.Core] += a.Thread.TimeFmax
	}
	for _, id := range res.Admitted {
		for _, th := range byUser[id].Threads {
			if n := seen[[2]int{id, th.Tile}]; n != 1 {
				t.Fatalf("user %d tile %d assigned %d times", id, th.Tile, n)
			}
		}
	}
	if len(seen) != len(res.Assignments) {
		t.Fatal("duplicate (user, tile) pairs in assignments")
	}

	// Plans agree with assignments; gating only for empty cores.
	for k, plan := range res.Plans {
		if plan.LoadAtFmax != loads[k] {
			t.Fatalf("core %d plan load %v != assigned %v", k, plan.LoadAtFmax, loads[k])
		}
		if plan.Gated != (loads[k] == 0) {
			t.Fatalf("core %d gated=%v with load %v", k, plan.Gated, loads[k])
		}
	}
	used := 0
	for _, l := range loads {
		if l > 0 {
			used++
		}
	}
	if res.CoresUsed != used {
		t.Fatalf("CoresUsed %d, want %d", res.CoresUsed, used)
	}

	// UserCores/CoresOf agree with the assignments.
	distinct := make(map[int]map[int]bool)
	for _, a := range res.Assignments {
		if distinct[a.Thread.User] == nil {
			distinct[a.Thread.User] = make(map[int]bool)
		}
		distinct[a.Thread.User][a.Core] = true
	}
	for _, id := range res.Admitted {
		if got, want := res.UserCores[id], len(distinct[id]); got != want {
			t.Fatalf("UserCores[%d] = %d, assignments use %d cores", id, got, want)
		}
		if res.CoresOf(id) < 1 {
			t.Fatalf("CoresOf(%d) below 1", id)
		}
	}
	if len(res.UserCores) != len(res.Admitted) {
		t.Fatalf("UserCores covers %d users, admitted %d", len(res.UserCores), len(res.Admitted))
	}

	// DemandCores reported for every candidate, admitted or not.
	for _, u := range in.Users {
		if _, ok := res.DemandCores[u.User]; !ok {
			t.Fatalf("no demand reported for user %d", u.User)
		}
	}

	// Capacity: admission never over-commits the platform. For the core
	// -demand policies the admitted CPU time fits Cores slots; for the
	// baseline, one thread per core with no sharing.
	switch ordering {
	case "cores":
		var total time.Duration
		for _, id := range res.Admitted {
			total += byUser[id].totalTime()
		}
		if cap := time.Duration(in.Platform.Cores) * slot; total > cap {
			t.Fatalf("admitted %v of work into %v of capacity", total, cap)
		}
	case "threads":
		perCore := make(map[int]int)
		for _, a := range res.Assignments {
			perCore[a.Core]++
			if perCore[a.Core] > 1 {
				t.Fatalf("baseline stacked %d threads on core %d", perCore[a.Core], a.Core)
			}
		}
	}

	// The plan is always simulatable, and the simulator's miss count
	// matches the cores whose load cannot fit the slot.
	rep, err := in.Platform.SimulateSlot(res.Plans, slot)
	if err != nil {
		t.Fatalf("plan not simulatable: %v", err)
	}
	for k, c := range rep.CarryOver {
		if c > 0 && loads[k] <= slot && res.Plans[k].Transitions == 0 {
			t.Fatalf("core %d carried over %v despite fitting load %v", k, c, loads[k])
		}
	}
}

// TestAllocatorInvariantsRandomized drives all four allocators over the
// same randomized inputs and checks the shared contract: capacity
// respected, every thread placed exactly once, admission consistent with
// the policy's ordering, and Result bookkeeping (Plans, CoresUsed,
// UserCores, DemandCores) consistent with Assignments.
func TestAllocatorInvariantsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 60; c++ {
		in := randomInput(rng)
		for _, p := range invariantPolicies {
			res, err := p.alloc(in)
			if err != nil {
				t.Fatalf("case %d %s: %v", c, p.name, err)
			}
			t.Run(fmt.Sprintf("case%d/%s", c, p.name), func(t *testing.T) {
				checkInvariants(t, in, res, p.ordering)
			})
		}
	}
}

// TestAllocatorInvariantsEdgeCases pins the table-driven corner inputs.
func TestAllocatorInvariantsEdgeCases(t *testing.T) {
	two := mpsoc.XeonE5_2667V4()
	two.Cores = 2
	cases := []struct {
		name string
		in   Input
	}{
		{"single-tiny-user", input(demand(0, time.Microsecond))},
		{"zero-time-threads", input(demand(0, 0, 0, 0, 0))},
		{"exact-slot-fill", input(demand(0, time.Second/24), demand(1, time.Second/24))},
		{"everyone-too-big", Input{Platform: two, FPS: 24,
			Users: []UserDemand{demand(0, ms(50), ms(50), ms(50)), demand(1, ms(60), ms(60), ms(60))}}},
		{"many-users-one-core-each", input(func() []UserDemand {
			var us []UserDemand
			for i := 0; i < 40; i++ {
				us = append(us, demand(i, ms(10)))
			}
			return us
		}()...)},
	}
	for _, tc := range cases {
		for _, p := range invariantPolicies {
			t.Run(tc.name+"/"+p.name, func(t *testing.T) {
				res, err := p.alloc(tc.in)
				if err != nil {
					t.Fatal(err)
				}
				checkInvariants(t, tc.in, res, p.ordering)
			})
		}
	}
}

// containsID reports membership in a small id slice.
func containsID(ids []int, v int) bool {
	for _, x := range ids {
		if x == v {
			return true
		}
	}
	return false
}
