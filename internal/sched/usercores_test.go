package sched

import (
	"testing"
	"time"

	"repro/internal/mpsoc"
)

// coresInput builds a small heterogeneous demand set: user 0 light (fits
// one core), user 1 heavy (needs several cores), user 2 medium.
func coresInput() Input {
	mk := func(user, tiles int, per time.Duration) UserDemand {
		d := UserDemand{User: user}
		for t := 0; t < tiles; t++ {
			d.Threads = append(d.Threads, Thread{User: user, Tile: t, TimeFmax: per})
		}
		return d
	}
	return Input{
		Platform: mpsoc.XeonE5_2667V4(),
		FPS:      24,
		Users: []UserDemand{
			mk(0, 2, 2*time.Millisecond),
			mk(1, 6, 30*time.Millisecond),
			mk(2, 4, 10*time.Millisecond),
		},
	}
}

func TestUserCoresPopulatedByAllAllocators(t *testing.T) {
	allocators := map[string]func(Input) (*Result, error){
		"content-aware": AllocateContentAware,
		"baseline":      allocateBaseline,
	}
	for name, alloc := range allocators {
		res, err := alloc(coresInput())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.UserCores == nil {
			t.Fatalf("%s: UserCores not populated", name)
		}
		total := 0
		for _, id := range res.Admitted {
			n := res.CoresOf(id)
			if n < 1 {
				t.Fatalf("%s: admitted user %d has core count %d", name, id, n)
			}
			if n > res.CoresUsed {
				t.Fatalf("%s: user %d on %d cores, only %d in use", name, id, n, res.CoresUsed)
			}
			total += n
		}
		// Shared cores may be double-counted across users, but every used
		// core hosts at least one user's thread.
		if total < res.CoresUsed {
			t.Fatalf("%s: per-user cores sum %d below cores used %d", name, total, res.CoresUsed)
		}
	}
}

func TestUserCoresMatchAssignments(t *testing.T) {
	res, err := AllocateContentAware(coresInput())
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[int]map[int]bool)
	for _, a := range res.Assignments {
		if distinct[a.Thread.User] == nil {
			distinct[a.Thread.User] = make(map[int]bool)
		}
		distinct[a.Thread.User][a.Core] = true
	}
	for user, cores := range distinct {
		if got := res.UserCores[user]; got != len(cores) {
			t.Fatalf("user %d: UserCores %d, assignments span %d cores", user, got, len(cores))
		}
	}
	// The heavy user's threads cannot fit one core within a 1/24 s slot.
	if res.CoresOf(1) < 2 {
		t.Fatalf("heavy user on %d cores", res.CoresOf(1))
	}
}

func TestCoresOfUnknownUser(t *testing.T) {
	res := &Result{}
	if got := res.CoresOf(99); got != 1 {
		t.Fatalf("CoresOf on empty result = %d, want 1", got)
	}
}
