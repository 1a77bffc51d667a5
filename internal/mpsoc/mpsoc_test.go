package mpsoc

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestXeonPlatformValid(t *testing.T) {
	p := XeonE5_2667V4()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Cores != 32 {
		t.Fatalf("cores = %d (4 × 8-core E5-2667)", p.Cores)
	}
	if len(p.Levels) != 3 {
		t.Fatalf("%d levels, want 3 (2.9/3.2/3.6 GHz)", len(p.Levels))
	}
	if p.fmax().Hz != 3.6e9 {
		t.Fatalf("fmax = %v", p.fmax().Hz)
	}
	if p.DVFSLatency != 10*time.Microsecond {
		t.Fatalf("DVFS latency = %v (paper: 10 µs)", p.DVFSLatency)
	}
}

func TestValidateCatchesBadPlatforms(t *testing.T) {
	mutations := []func(*Platform){
		func(p *Platform) { p.Cores = 0 },
		func(p *Platform) { p.ThreadsPerCore = 0 },
		func(p *Platform) { p.Levels = nil },
		func(p *Platform) { p.Levels[1].Hz = p.Levels[0].Hz }, // not ascending
		func(p *Platform) { p.Levels[0].Volt = -1 },
		func(p *Platform) { p.DVFSLatency = -time.Second },
		func(p *Platform) { p.power.CeffWPerV2GHz = 0 },
		func(p *Platform) { p.power.IdleFrac = 1.5 },
	}
	for i, mutate := range mutations {
		p := XeonE5_2667V4()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
}

func TestPowerModelOrdering(t *testing.T) {
	p := XeonE5_2667V4()
	m := p.power
	for i, l := range p.Levels {
		if m.idleWatts(l) >= m.busyWatts(l) {
			t.Fatalf("level %d: idle %.2f W ≥ busy %.2f W", i, m.idleWatts(l), m.busyWatts(l))
		}
		if i > 0 {
			prev := p.Levels[i-1]
			if m.busyWatts(l) <= m.busyWatts(prev) {
				t.Fatalf("busy power not increasing with frequency at level %d", i)
			}
			if m.idleWatts(l) <= m.idleWatts(prev) {
				t.Fatalf("idle power not increasing with frequency at level %d", i)
			}
		}
	}
	// Calibration: a busy core at fmax should draw roughly 13 W (TDP/8).
	busy := m.busyWatts(p.fmax())
	if busy < 8 || busy > 20 {
		t.Fatalf("busy watts at fmax = %.1f, want ≈13", busy)
	}
}

func TestScaleToLevel(t *testing.T) {
	p := XeonE5_2667V4()
	work := 29 * time.Millisecond
	// At fmax the time is unchanged.
	if got := p.scaleToLevel(work, p.MaxLevel()); got != work {
		t.Fatalf("fmax scaling changed time: %v", got)
	}
	// At 2.9 GHz the same work takes 3.6/2.9 longer.
	got := p.scaleToLevel(work, 0)
	want := time.Duration(float64(work) * 3.6 / 2.9)
	if d := got - want; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("scaled = %v, want %v", got, want)
	}
}

func TestSimulateSlotAllIdle(t *testing.T) {
	p := XeonE5_2667V4()
	plans := make([]CorePlan, p.Cores) // all idle at level 0
	slot := 41666 * time.Microsecond   // 1/24 s
	rep, err := p.SimulateSlot(plans, slot)
	if err != nil {
		t.Fatal(err)
	}
	wantW := float64(p.Cores) * p.power.idleWatts(p.Levels[0])
	if math.Abs(rep.AvgPowerW-wantW) > 1e-6 {
		t.Fatalf("idle power %.3f W, want %.3f", rep.AvgPowerW, wantW)
	}
	if rep.DeadlineMisses != 0 {
		t.Fatal("idle slot reported misses")
	}
}

func TestSimulateSlotBusyVsIdleEnergy(t *testing.T) {
	p := XeonE5_2667V4()
	slot := time.Second / 24
	mk := func(load time.Duration, idleLevel int) []CorePlan {
		plans := make([]CorePlan, p.Cores)
		plans[0] = CorePlan{LoadAtFmax: load, BusyLevel: p.MaxLevel(), IdleLevel: idleLevel}
		return plans
	}
	// Same work, slack at fmin vs slack at fmax: fmin must cost less.
	repMin, err := p.SimulateSlot(mk(10*time.Millisecond, p.MinLevel()), slot)
	if err != nil {
		t.Fatal(err)
	}
	repMax, err := p.SimulateSlot(mk(10*time.Millisecond, p.MaxLevel()), slot)
	if err != nil {
		t.Fatal(err)
	}
	if repMin.EnergyJ >= repMax.EnergyJ {
		t.Fatalf("fmin slack %.4f J ≥ fmax slack %.4f J", repMin.EnergyJ, repMax.EnergyJ)
	}
}

func TestSimulateSlotDeadlineMissAndCarryOver(t *testing.T) {
	p := XeonE5_2667V4()
	slot := time.Second / 24
	plans := make([]CorePlan, p.Cores)
	// 60 ms of work at fmax in a 41.7 ms slot.
	plans[3] = CorePlan{LoadAtFmax: 60 * time.Millisecond, BusyLevel: p.MaxLevel(), IdleLevel: p.MinLevel()}
	rep, err := p.SimulateSlot(plans, slot)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadlineMisses != 1 {
		t.Fatalf("misses = %d, want 1", rep.DeadlineMisses)
	}
	carry := rep.CarryOver[3]
	want := 60*time.Millisecond - slot
	if d := carry - want; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("carry-over = %v, want ≈%v", carry, want)
	}
	if rep.BusyTime[3] != slot {
		t.Fatalf("busy time %v, want full slot", rep.BusyTime[3])
	}
}

func TestSimulateSlotCarryOverScalesWithFrequency(t *testing.T) {
	p := XeonE5_2667V4()
	slot := time.Second / 24
	plans := make([]CorePlan, p.Cores)
	// Work fits at fmax but not at fmin.
	plans[0] = CorePlan{LoadAtFmax: 35 * time.Millisecond, BusyLevel: p.MinLevel(), IdleLevel: p.MinLevel()}
	rep, err := p.SimulateSlot(plans, slot)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadlineMisses != 1 {
		t.Fatalf("running 35 ms@fmax of work at 2.9 GHz must overrun: misses=%d", rep.DeadlineMisses)
	}
	// The carried work, re-expressed at fmax, must keep total work
	// conserved: executed (slot at 2.9 GHz → slot·2.9/3.6 at fmax) +
	// carry == 35 ms.
	executedAtFmax := time.Duration(float64(slot) * 2.9 / 3.6)
	total := executedAtFmax + rep.CarryOver[0]
	if d := total - 35*time.Millisecond; d < -10*time.Microsecond || d > 10*time.Microsecond {
		t.Fatalf("work not conserved: executed %v + carry %v != 35ms", executedAtFmax, rep.CarryOver[0])
	}
}

func TestSimulateSlotTransitionsCost(t *testing.T) {
	p := XeonE5_2667V4()
	slot := time.Second / 24
	base := make([]CorePlan, p.Cores)
	base[0] = CorePlan{LoadAtFmax: 10 * time.Millisecond, BusyLevel: p.MaxLevel(), IdleLevel: p.MinLevel()}
	with := make([]CorePlan, p.Cores)
	with[0] = base[0]
	with[0].Transitions = 2
	a, err := p.SimulateSlot(base, slot)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.SimulateSlot(with, slot)
	if err != nil {
		t.Fatal(err)
	}
	if b.BusyTime[0] != a.BusyTime[0]+2*p.DVFSLatency {
		t.Fatalf("transition latency not charged: %v vs %v", b.BusyTime[0], a.BusyTime[0])
	}
}

func TestSimulateSlotValidation(t *testing.T) {
	p := XeonE5_2667V4()
	slot := time.Second / 24
	if _, err := p.SimulateSlot(make([]CorePlan, 3), slot); err == nil {
		t.Fatal("accepted wrong plan count")
	}
	if _, err := p.SimulateSlot(make([]CorePlan, p.Cores), 0); err == nil {
		t.Fatal("accepted zero slot")
	}
	bad := make([]CorePlan, p.Cores)
	bad[0].BusyLevel = 99
	if _, err := p.SimulateSlot(bad, slot); err == nil {
		t.Fatal("accepted bad level")
	}
	bad2 := make([]CorePlan, p.Cores)
	bad2[0].LoadAtFmax = -time.Second
	if _, err := p.SimulateSlot(bad2, slot); err == nil {
		t.Fatal("accepted negative load")
	}
}

func TestEnergyNonNegativeProperty(t *testing.T) {
	p := XeonE5_2667V4()
	slot := time.Second / 24
	f := func(loads [8]uint16, levels [8]uint8) bool {
		plans := make([]CorePlan, p.Cores)
		for i := 0; i < 8; i++ {
			plans[i] = CorePlan{
				LoadAtFmax: time.Duration(loads[i]%50) * time.Millisecond,
				BusyLevel:  int(levels[i]) % len(p.Levels),
				IdleLevel:  int(levels[i]+1) % len(p.Levels),
			}
		}
		rep, err := p.SimulateSlot(plans, slot)
		if err != nil {
			return false
		}
		if rep.EnergyJ < 0 || rep.AvgPowerW < 0 {
			return false
		}
		for i := range rep.BusyTime {
			if rep.BusyTime[i] > slot || rep.CarryOver[i] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalsAccumulateSlotReports(t *testing.T) {
	p := XeonE5_2667V4()
	slot := time.Second / 24
	// One idle slot, one overloaded slot.
	idle := make([]CorePlan, p.Cores)
	for i := range idle {
		idle[i] = CorePlan{Gated: true}
	}
	over := make([]CorePlan, p.Cores)
	for i := range over {
		over[i] = CorePlan{Gated: true}
	}
	over[0] = CorePlan{LoadAtFmax: 2 * slot, BusyLevel: p.MaxLevel(), IdleLevel: p.MinLevel()}

	var tot Totals
	tot.Add(nil) // nil-safe
	r1, err := p.SimulateSlot(idle, slot)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.SimulateSlot(over, slot)
	if err != nil {
		t.Fatal(err)
	}
	tot.Add(r1)
	tot.Add(r2)

	if tot.Slots != 2 || tot.Time != 2*slot {
		t.Fatalf("slots=%d time=%v", tot.Slots, tot.Time)
	}
	if want := r1.EnergyJ + r2.EnergyJ; tot.EnergyJ != want {
		t.Fatalf("energy %v, want %v", tot.EnergyJ, want)
	}
	if tot.DeadlineMisses != 1 {
		t.Fatalf("misses = %d, want 1", tot.DeadlineMisses)
	}
	if tot.CarryOver <= 0 {
		t.Fatal("no carry-over accumulated from the overloaded slot")
	}
	if tot.PeakPowerW != r2.AvgPowerW {
		t.Fatalf("peak %v, want the overloaded slot's %v", tot.PeakPowerW, r2.AvgPowerW)
	}
	if avg := tot.AvgPowerW(); avg <= 0 || avg > tot.PeakPowerW {
		t.Fatalf("avg power %v out of range", avg)
	}
	var empty Totals
	if empty.AvgPowerW() != 0 {
		t.Fatal("empty totals must report zero power")
	}
}

// TestValidateRejectsNonFinitePlatform is the regression test for the
// power-math bug: NaN/Inf parameters pass ordinary range checks (NaN < 0
// is false), flow into the slot energy model, and yield a SlotReport whose
// AvgPowerW/EnergyJ encoding/json refuses to marshal — killing JSONL and
// metrics lines downstream. Validate must catch them at the source.
func TestValidateRejectsNonFinitePlatform(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	mutations := []func(*Platform){
		func(p *Platform) { p.Levels[0].Volt = nan },
		func(p *Platform) { p.Levels[1].Hz = inf },
		func(p *Platform) { p.power.StaticW = inf },
		func(p *Platform) { p.power.StaticW = nan },
		func(p *Platform) { p.power.CeffWPerV2GHz = nan },
		func(p *Platform) { p.power.IdleFrac = nan },
		func(p *Platform) { p.power.GatedW = nan },
	}
	for i, mutate := range mutations {
		p := XeonE5_2667V4()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: non-finite platform passed validation", i)
		}
	}
}

// TestSlotReportJSONSafe pins the contract end to end: for any platform
// SimulateSlot accepts, the resulting report must be marshalable — no
// NaN/Inf may reach AvgPowerW or EnergyJ. Pre-fix, a NaN supply voltage
// passed Validate and produced a report json.Marshal rejects.
func TestSlotReportJSONSafe(t *testing.T) {
	p := XeonE5_2667V4()
	p.Levels[2].Volt = math.NaN()
	plans := make([]CorePlan, p.Cores)
	plans[0] = CorePlan{LoadAtFmax: 10 * time.Millisecond, BusyLevel: 2}
	rep, err := p.SimulateSlot(plans, time.Second/24)
	if err != nil {
		return // rejected at validation — the fixed behavior
	}
	if _, merr := json.Marshal(rep); merr != nil {
		t.Fatalf("SimulateSlot accepted the platform but its report is not marshalable: %v", merr)
	}
}
