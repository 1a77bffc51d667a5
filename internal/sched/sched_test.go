package sched

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mpsoc"
)

// ms is a test shorthand.
func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

// demand builds a UserDemand with the given per-tile CPU times.
func demand(user int, times ...time.Duration) UserDemand {
	u := UserDemand{User: user}
	for i, d := range times {
		u.Threads = append(u.Threads, Thread{User: user, Tile: i, TimeFmax: d})
	}
	return u
}

func input(users ...UserDemand) Input {
	return Input{Platform: mpsoc.XeonE5_2667V4(), FPS: 24, Users: users}
}

func TestCoresNeeded(t *testing.T) {
	// Slot = 41.67 ms. 30 ms of work → 0.72 cores → 1. 90 ms → 2.16 → 3.
	if got := demand(0, ms(30)).CoresNeeded(24); got != 1 {
		t.Fatalf("30ms → %d cores", got)
	}
	if got := demand(0, ms(30), ms(30), ms(30)).CoresNeeded(24); got != 3 {
		t.Fatalf("90ms → %d cores", got)
	}
	if got := demand(0, time.Microsecond).CoresNeeded(24); got != 1 {
		t.Fatal("tiny demand needs at least one core")
	}
}

func TestDemandOf(t *testing.T) {
	// DemandOf is the pre-admission pricing entry: per-user CoresNeeded
	// under the input's FPS, no allocation.
	got, err := DemandOf(input(demand(0, ms(30)), demand(1, ms(30), ms(30), ms(30))))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("DemandOf = %v, want {0:1, 1:3}", got)
	}
	if _, err := DemandOf(Input{Platform: nil, FPS: 24, Users: []UserDemand{demand(0, ms(1))}}); err == nil {
		t.Fatal("DemandOf accepted an invalid input")
	}
}

func TestValidation(t *testing.T) {
	bad := []Input{
		{Platform: nil, FPS: 24, Users: []UserDemand{demand(0, ms(1))}},
		{Platform: mpsoc.XeonE5_2667V4(), FPS: 0, Users: []UserDemand{demand(0, ms(1))}},
		input(demand(0, ms(1)), demand(0, ms(1))),                                  // duplicate id
		input(UserDemand{User: 0}),                                                 // no threads
		input(UserDemand{User: 0, Threads: []Thread{{User: 0, TimeFmax: -ms(1)}}}), // negative
		input(UserDemand{User: 0, Threads: []Thread{{User: 5, TimeFmax: ms(1)}}}),  // mismatched id
	}
	for i, in := range bad {
		if _, err := AllocateContentAware(in); err == nil {
			t.Errorf("case %d allocated", i)
		}
	}
}

func TestSingleUserAllocation(t *testing.T) {
	in := input(demand(0, ms(10), ms(8), ms(5), ms(3)))
	res, err := AllocateContentAware(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Admitted) != 1 || res.Admitted[0] != 0 {
		t.Fatalf("admitted = %v", res.Admitted)
	}
	if len(res.Assignments) != 4 {
		t.Fatalf("%d assignments", len(res.Assignments))
	}
	// Total 26 ms < 41.67 ms slot: Algorithm 2's densifying rule should
	// pack everything onto one core.
	if res.CoresUsed != 1 {
		t.Fatalf("cores used = %d, want 1 (dense packing)", res.CoresUsed)
	}
}

func TestDensePackingVsGreedy(t *testing.T) {
	// The distinguishing behaviour vs a least-loaded spread (which would
	// open four cores): Algorithm 2 fills a core toward the cap before
	// opening another. 4 × 10 ms fits one 41.67 ms slot.
	in := input(demand(0, ms(10), ms(10), ms(10), ms(10)))
	ca, err := AllocateContentAware(in)
	if err != nil {
		t.Fatal(err)
	}
	if ca.CoresUsed != 1 {
		t.Fatalf("content-aware used %d cores, want 1 — densification lost", ca.CoresUsed)
	}
}

func TestNoCoreExceedsSlotWhenAvoidable(t *testing.T) {
	// 8 threads × 20 ms = 160 ms over a 41.67 ms slot → needs ≥ 4 cores;
	// none may exceed the slot because spare cores exist.
	in := input(demand(0, ms(20), ms(20), ms(20), ms(20), ms(20), ms(20), ms(20), ms(20)))
	res, err := AllocateContentAware(in)
	if err != nil {
		t.Fatal(err)
	}
	slot := time.Second / 24
	loads := coreLoads(res)
	for k, l := range loads {
		if l > slot {
			t.Fatalf("core %d load %v exceeds slot %v", k, l, slot)
		}
	}
}

func coreLoads(res *Result) map[int]time.Duration {
	loads := make(map[int]time.Duration)
	for _, a := range res.Assignments {
		loads[a.Core] += a.Thread.TimeFmax
	}
	return loads
}

func TestAdmissionPrefersSmallUsers(t *testing.T) {
	// 31 small users (1 core each) + 1 huge user (32 cores): admitting the
	// small ones first maximizes the user count.
	var users []UserDemand
	for i := 0; i < 31; i++ {
		users = append(users, demand(i, ms(30)))
	}
	var big []time.Duration
	for i := 0; i < 40; i++ {
		big = append(big, ms(35))
	}
	users = append(users, demand(99, big...))
	res, err := AllocateContentAware(input(users...))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Admitted) != 31 {
		t.Fatalf("admitted %d users, want 31 small ones", len(res.Admitted))
	}
	if len(res.Rejected) != 1 || res.Rejected[0] != 99 {
		t.Fatalf("rejected = %v, want [99]", res.Rejected)
	}
}

func TestSaturatedQueueFillsPlatform(t *testing.T) {
	// More demand than cores: the platform must be fully used and the
	// admitted user count bounded by core capacity.
	var users []UserDemand
	for i := 0; i < 64; i++ {
		users = append(users, demand(i, ms(25), ms(20)))
	}
	res, err := AllocateContentAware(input(users...))
	if err != nil {
		t.Fatal(err)
	}
	// Each user needs ceil(45ms/41.67ms) = 2 cores → 16 users on 32 cores.
	if len(res.Admitted) != 16 {
		t.Fatalf("admitted %d users, want 16", len(res.Admitted))
	}
	if len(res.Admitted)+len(res.Rejected) != 64 {
		t.Fatal("admitted + rejected != total")
	}
}

func TestDVFSSlackGoesToMinLevel(t *testing.T) {
	in := input(demand(0, ms(10)))
	res, err := AllocateContentAware(in)
	if err != nil {
		t.Fatal(err)
	}
	p := in.Platform
	for k, plan := range res.Plans {
		if plan.LoadAtFmax > 0 {
			if plan.BusyLevel != p.MaxLevel() {
				t.Fatalf("core %d busy level %d, want fmax", k, plan.BusyLevel)
			}
			if plan.IdleLevel != p.MinLevel() {
				t.Fatalf("core %d idle level %d, want fmin", k, plan.IdleLevel)
			}
			if plan.Transitions == 0 {
				t.Fatalf("core %d with slack has no DVFS transitions", k)
			}
		}
	}
}

func TestBaselineOneThreadPerCore(t *testing.T) {
	in := input(demand(0, ms(30), ms(30), ms(30)), demand(1, ms(30), ms(30)))
	res, err := allocateBaseline(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Admitted) != 2 {
		t.Fatalf("admitted = %v", res.Admitted)
	}
	// 5 threads → 5 distinct cores.
	seen := make(map[int]bool)
	for _, a := range res.Assignments {
		if seen[a.Core] {
			t.Fatalf("core %d assigned twice — baseline is one thread per core", a.Core)
		}
		seen[a.Core] = true
	}
	if res.CoresUsed != 5 {
		t.Fatalf("cores used = %d, want 5", res.CoresUsed)
	}
	// Active cores idle at fmax (the baseline's power penalty).
	p := in.Platform
	for k, plan := range res.Plans {
		if plan.LoadAtFmax > 0 && plan.IdleLevel != p.MaxLevel() {
			t.Fatalf("core %d idles at level %d, baseline keeps fmax", k, plan.IdleLevel)
		}
	}
}

func TestBaselineAdmissionByThreadCount(t *testing.T) {
	// 3 users × 12 threads = 36 > 32 cores → only 2 admitted.
	mk := func(id int) UserDemand {
		var ts []time.Duration
		for i := 0; i < 12; i++ {
			ts = append(ts, ms(30))
		}
		return demand(id, ts...)
	}
	res, err := allocateBaseline(input(mk(0), mk(1), mk(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Admitted) != 2 {
		t.Fatalf("admitted %d, want 2", len(res.Admitted))
	}
}

func TestProposedAdmitsMoreUsersThanBaseline(t *testing.T) {
	// The Table II shape: same user population, saturated queue. The
	// baseline's one-tile-per-core discipline admits fewer users than
	// Algorithm 2's dense packing.
	var users []UserDemand
	for i := 0; i < 40; i++ {
		// 6 tiles of 5 ms each → 30 ms/frame: 1 core by Algorithm 2,
		// 6 cores by the baseline.
		users = append(users, demand(i, ms(5), ms(5), ms(5), ms(5), ms(5), ms(5)))
	}
	in := input(users...)
	prop, err := AllocateContentAware(in)
	if err != nil {
		t.Fatal(err)
	}
	base, err := allocateBaseline(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(prop.Admitted) <= len(base.Admitted) {
		t.Fatalf("proposed admitted %d, baseline %d — throughput advantage lost",
			len(prop.Admitted), len(base.Admitted))
	}
}

func TestProposedSavesPowerVsBaseline(t *testing.T) {
	// The Fig. 4 shape: same users on both policies, energy from the
	// platform simulator. The proposed policy must consume less power.
	var users []UserDemand
	for i := 0; i < 6; i++ {
		users = append(users, demand(i, ms(8), ms(6), ms(5), ms(4)))
	}
	in := input(users...)
	prop, err := AllocateContentAware(in)
	if err != nil {
		t.Fatal(err)
	}
	base, err := allocateBaseline(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(prop.Admitted) != len(base.Admitted) {
		t.Fatalf("admission differs: %d vs %d", len(prop.Admitted), len(base.Admitted))
	}
	slot := time.Second / 24
	eProp, err := in.Platform.SimulateSlot(prop.Plans, slot)
	if err != nil {
		t.Fatal(err)
	}
	eBase, err := in.Platform.SimulateSlot(base.Plans, slot)
	if err != nil {
		t.Fatal(err)
	}
	saving := 1 - eProp.AvgPowerW/eBase.AvgPowerW
	if saving < 0.15 {
		t.Fatalf("power saving %.1f%%, want a substantial margin", saving*100)
	}
}

func TestAllAllocatorsAssignEveryAdmittedThread(t *testing.T) {
	allocs := map[string]func(Input) (*Result, error){
		"content-aware": AllocateContentAware,
		"baseline":      allocateBaseline,
	}
	in := input(demand(0, ms(9), ms(7)), demand(1, ms(6), ms(4), ms(2)), demand(2, ms(12)))
	for name, alloc := range allocs {
		res, err := alloc(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := 0
		for _, u := range in.Users {
			if containsInt(res.Admitted, u.User) {
				want += len(u.Threads)
			}
		}
		if len(res.Assignments) != want {
			t.Errorf("%s: %d assignments, want %d", name, len(res.Assignments), want)
		}
		for _, a := range res.Assignments {
			if a.Core < 0 || a.Core >= in.Platform.Cores {
				t.Errorf("%s: core %d out of range", name, a.Core)
			}
			if !containsInt(res.Admitted, a.Thread.User) {
				t.Errorf("%s: thread of non-admitted user %d assigned", name, a.Thread.User)
			}
		}
		if len(res.Plans) != in.Platform.Cores {
			t.Errorf("%s: %d plans", name, len(res.Plans))
		}
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestPlansMatchAssignments(t *testing.T) {
	in := input(demand(0, ms(9), ms(7), ms(13)), demand(1, ms(21)))
	res, err := AllocateContentAware(in)
	if err != nil {
		t.Fatal(err)
	}
	loads := coreLoads(res)
	for k, plan := range res.Plans {
		if plan.LoadAtFmax != loads[k] {
			t.Fatalf("core %d plan load %v != assignment sum %v", k, plan.LoadAtFmax, loads[k])
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	in := input(demand(0, ms(9), ms(7)), demand(1, ms(9), ms(7)), demand(2, ms(30)))
	a, err := AllocateContentAware(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AllocateContentAware(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Assignments) != len(b.Assignments) {
		t.Fatal("assignment counts differ")
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("assignment %d differs: %+v vs %+v", i, a.Assignments[i], b.Assignments[i])
		}
	}
}

func TestPropertyAdmissionNeverExceedsCapacity(t *testing.T) {
	f := func(seeds [8]uint16) bool {
		var users []UserDemand
		for i, s := range seeds {
			n := int(s%4) + 1
			var ts []time.Duration
			for j := 0; j < n; j++ {
				ts = append(ts, time.Duration(s%40+1)*time.Millisecond)
			}
			users = append(users, demand(i, ts...))
		}
		in := input(users...)
		res, err := AllocateContentAware(in)
		if err != nil {
			return false
		}
		// Total admitted core demand within platform cores.
		total := 0
		for _, u := range in.Users {
			if containsInt(res.Admitted, u.User) {
				total += u.CoresNeeded(in.FPS)
			}
		}
		return total <= in.Platform.Cores
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
