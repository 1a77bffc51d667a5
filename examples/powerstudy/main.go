// Powerstudy: explore the DVFS side of the paper — how Algorithm 2's
// dense packing plus min-frequency slack compares against the baseline's
// always-fmax cores, across allocation policies and user counts, using the
// MPSoC power model directly (no video encoding; thread demands are
// synthetic, which is exactly what the scheduler sees from the LUT).
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/mpsoc"
	"repro/internal/sched"
)

func main() {
	platform := mpsoc.XeonE5_2667V4()
	slot := time.Second / 24

	// Each user: 4 tile threads with heterogeneous CPU times (measured at
	// fmax), roughly one core's worth of work in total.
	mkUsers := func(n int) []sched.UserDemand {
		var users []sched.UserDemand
		for u := 0; u < n; u++ {
			base := 6 + time.Duration(u%3)*2 // 6, 8, 10 ms
			users = append(users, sched.UserDemand{User: u, Threads: []sched.Thread{
				{User: u, Tile: 0, TimeFmax: base * time.Millisecond},
				{User: u, Tile: 1, TimeFmax: (base + 4) * time.Millisecond},
				{User: u, Tile: 2, TimeFmax: (base / 2) * time.Millisecond},
				{User: u, Tile: 3, TimeFmax: (base + 10) * time.Millisecond},
			}})
		}
		return users
	}

	// Every registered allocation policy competes: the paper's two
	// (content-aware and baseline) as shipped — a policy added to the
	// sched registry shows up here (and in transcode -allocator) with no
	// further wiring.
	policies := sched.Default.All()

	fmt.Printf("%-52s", "users:")
	counts := []int{2, 4, 6, 8}
	for _, n := range counts {
		fmt.Printf("%10d", n)
	}
	fmt.Println()
	for _, p := range policies {
		fmt.Printf("%-52s", fmt.Sprintf("%s (%s)", p.Name, p.Description))
		for _, n := range counts {
			res, err := p.Func(sched.Input{Platform: platform, FPS: 24, Users: mkUsers(n)})
			if err != nil {
				log.Fatal(err)
			}
			rep, err := platform.SimulateSlot(res.Plans, slot)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %5.1f W ", rep.AvgPowerW)
		}
		fmt.Println()
	}

	fmt.Println("\ncores used at 6 users:")
	for _, p := range policies {
		res, err := p.Func(sched.Input{Platform: platform, FPS: 24, Users: mkUsers(6)})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   %-14s %d cores, %d users admitted\n", p.Name, res.CoresUsed, len(res.Admitted))
	}
}
