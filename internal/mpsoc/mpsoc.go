// Package mpsoc models the execution platform of the paper: a multicore
// server with per-core DVFS (the evaluation machine is four 8-core Intel
// Xeon E5-2667 processors with operating points 2.9, 3.2 and 3.6 GHz and a
// 10 µs DVFS transition latency). The model provides what the scheduler
// (internal/sched) consumes — core counts, frequency levels and slot-based
// timing — and what the experiments report — per-slot energy and power
// from a static + dynamic (C·V²·f) power model.
//
// The paper measures a real server; this package substitutes a calibrated
// simulator. The substitution is sound because Algorithm 2 takes only
// per-thread CPU-time estimates as input and emits core/frequency
// assignments; feeding it modelled tile encode times exercises the identical
// decision logic (see DESIGN.md).
package mpsoc

import (
	"fmt"
	"math"
	"time"
)

// finite reports whether x is a usable real number. Validation uses it
// because NaN slips through ordinary range checks (NaN < 0 is false), and
// one non-finite platform parameter turns every downstream energy figure
// into NaN/Inf — which encoding/json refuses to marshal, silently killing
// JSONL and metrics lines built from the reports.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// FreqLevel is one DVFS operating point.
type FreqLevel struct {
	// Hz is the core clock frequency.
	Hz float64
	// Volt is the supply voltage at this frequency.
	Volt float64
}

// ghz returns the frequency in GHz.
func (f FreqLevel) ghz() float64 { return f.Hz / 1e9 }

// powerModel parametrizes per-core power: P_busy = Static + Ceff·V²·f and
// P_idle = Static + IdleFrac·Ceff·V²·f (clock tree and uncore keep
// switching while idle, at a fraction of the busy activity factor).
type powerModel struct {
	// StaticW is the leakage (voltage-independent simplification) per core.
	StaticW float64
	// CeffWPerV2GHz is the effective switched capacitance in W/(V²·GHz).
	CeffWPerV2GHz float64
	// IdleFrac is the idle activity factor in [0, 1).
	IdleFrac float64
	// GatedW is the power of a power-gated core (deep C-state): clocks
	// stopped, most of the core rail collapsed. Cores with no work in a
	// slot can be gated instead of idled.
	GatedW float64
}

// busyWatts returns the active power of one core at level f.
func (m powerModel) busyWatts(f FreqLevel) float64 {
	return m.StaticW + m.CeffWPerV2GHz*f.Volt*f.Volt*f.ghz()
}

// idleWatts returns the idle power of one core clocked at level f.
func (m powerModel) idleWatts(f FreqLevel) float64 {
	return m.StaticW + m.IdleFrac*m.CeffWPerV2GHz*f.Volt*f.Volt*f.ghz()
}

// Platform describes the target MPSoC.
type Platform struct {
	// Cores is the number of physical cores usable for tile threads.
	Cores int
	// ThreadsPerCore models SMT contexts; the schedulers in this
	// repository allocate physical cores (as the paper does: one thread
	// per tile, tiles are compute-bound so SMT gains are second order).
	ThreadsPerCore int
	// Levels are the DVFS operating points in ascending frequency order.
	Levels []FreqLevel
	// DVFSLatency is the frequency transition latency.
	DVFSLatency time.Duration
	// power is the per-core power model.
	power powerModel
}

// XeonE5_2667V4 returns the paper's evaluation platform: 4 processors × 8
// cores, 2 SMT threads, operating points 2.9/3.2/3.6 GHz, 10 µs DVFS
// latency. Voltages follow a typical V-f curve for the part; the power
// model is calibrated so a fully busy core at 3.6 GHz draws ≈13 W (135 W
// TDP per 8-core processor, uncore excluded).
func XeonE5_2667V4() *Platform {
	return &Platform{
		Cores:          32,
		ThreadsPerCore: 2,
		Levels: []FreqLevel{
			{Hz: 2.9e9, Volt: 0.95},
			{Hz: 3.2e9, Volt: 1.00},
			{Hz: 3.6e9, Volt: 1.10},
		},
		DVFSLatency: 10 * time.Microsecond,
		power: powerModel{
			StaticW:       1.5,
			CeffWPerV2GHz: 2.6, // 1.5 + 2.6·1.1²·3.6 ≈ 12.8 W busy at fmax
			IdleFrac:      0.25,
			GatedW:        0.7,
		},
	}
}

// Validate reports platform description errors.
func (p *Platform) Validate() error {
	if p.Cores <= 0 {
		return fmt.Errorf("mpsoc: %d cores", p.Cores)
	}
	if p.ThreadsPerCore <= 0 {
		return fmt.Errorf("mpsoc: %d threads per core", p.ThreadsPerCore)
	}
	if len(p.Levels) == 0 {
		return fmt.Errorf("mpsoc: no frequency levels")
	}
	for i, l := range p.Levels {
		if !finite(l.Hz) || !finite(l.Volt) || l.Hz <= 0 || l.Volt <= 0 {
			return fmt.Errorf("mpsoc: level %d invalid (%v Hz, %v V)", i, l.Hz, l.Volt)
		}
		if i > 0 {
			prev := p.Levels[i-1]
			if l.Hz <= prev.Hz || l.Volt < prev.Volt {
				return fmt.Errorf("mpsoc: levels not ascending at %d", i)
			}
		}
	}
	if p.DVFSLatency < 0 {
		return fmt.Errorf("mpsoc: negative DVFS latency")
	}
	if !finite(p.power.StaticW) || !finite(p.power.CeffWPerV2GHz) || !finite(p.power.IdleFrac) || !finite(p.power.GatedW) {
		return fmt.Errorf("mpsoc: non-finite power model %+v", p.power)
	}
	if p.power.StaticW < 0 || p.power.CeffWPerV2GHz <= 0 || p.power.IdleFrac < 0 || p.power.IdleFrac >= 1 {
		return fmt.Errorf("mpsoc: invalid power model %+v", p.power)
	}
	if p.power.GatedW < 0 || p.power.GatedW > p.power.idleWatts(p.Levels[0]) {
		return fmt.Errorf("mpsoc: gated power %v above idle power", p.power.GatedW)
	}
	return nil
}

// MinLevel returns the index of the lowest operating point.
func (p *Platform) MinLevel() int { return 0 }

// MaxLevel returns the index of the highest operating point.
func (p *Platform) MaxLevel() int { return len(p.Levels) - 1 }

// fmax returns the highest-frequency level.
func (p *Platform) fmax() FreqLevel { return p.Levels[p.MaxLevel()] }

// scaleToLevel converts a CPU time measured (or estimated) at fmax into
// execution time at level l: work is frequency-bound, so t_l = t_max·fmax/f_l.
func (p *Platform) scaleToLevel(atFmax time.Duration, level int) time.Duration {
	f := p.Levels[level]
	return time.Duration(float64(atFmax) * p.fmax().Hz / f.Hz)
}

// CorePlan is one core's plan for a scheduling slot: how much work it
// executes (expressed as CPU time at fmax), at which level it executes,
// and at which level it idles for the remaining slack.
type CorePlan struct {
	// LoadAtFmax is the CPU time of the assigned work measured at fmax.
	LoadAtFmax time.Duration
	// BusyLevel indexes Platform.Levels for the execution phase.
	BusyLevel int
	// IdleLevel indexes Platform.Levels for the slack phase.
	IdleLevel int
	// Transitions counts DVFS switches charged to this core this slot.
	Transitions int
	// Gated parks the core in a deep C-state for the whole slot. Only
	// valid for cores with no load.
	Gated bool
}

// SlotReport summarizes the simulation of one slot.
type SlotReport struct {
	// Slot is the simulated slot length (1/FPS in the paper).
	Slot time.Duration
	// EnergyJ is the total energy of all cores over the slot.
	EnergyJ float64
	// AvgPowerW is EnergyJ / Slot.
	AvgPowerW float64
	// BusyTime per core (post frequency scaling, incl. DVFS latency).
	BusyTime []time.Duration
	// CarryOver is per-core work (at fmax) that did not fit in the slot;
	// Algorithm 2 shifts it to the next interval.
	CarryOver []time.Duration
	// DeadlineMisses counts cores whose work overran the slot.
	DeadlineMisses int
}

// SimulateSlot executes one slot of the given per-core plans and returns
// timing and energy. Plans must have one entry per platform core; absent
// cores idle at their IdleLevel for the whole slot.
func (p *Platform) SimulateSlot(plans []CorePlan, slot time.Duration) (*SlotReport, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if slot <= 0 {
		return nil, fmt.Errorf("mpsoc: non-positive slot %v", slot)
	}
	if len(plans) != p.Cores {
		return nil, fmt.Errorf("mpsoc: %d plans for %d cores", len(plans), p.Cores)
	}
	rep := &SlotReport{
		Slot:      slot,
		BusyTime:  make([]time.Duration, p.Cores),
		CarryOver: make([]time.Duration, p.Cores),
	}
	for i, plan := range plans {
		if plan.LoadAtFmax < 0 {
			return nil, fmt.Errorf("mpsoc: core %d negative load", i)
		}
		if plan.BusyLevel < 0 || plan.BusyLevel >= len(p.Levels) ||
			plan.IdleLevel < 0 || plan.IdleLevel >= len(p.Levels) {
			return nil, fmt.Errorf("mpsoc: core %d level out of range", i)
		}
		if plan.Gated {
			if plan.LoadAtFmax > 0 {
				return nil, fmt.Errorf("mpsoc: core %d gated with pending load", i)
			}
			rep.EnergyJ += p.power.GatedW * slot.Seconds()
			continue
		}
		busy := p.scaleToLevel(plan.LoadAtFmax, plan.BusyLevel)
		busy += time.Duration(plan.Transitions) * p.DVFSLatency
		if busy > slot {
			// Deadline miss: execute until the slot ends, carry the rest
			// (expressed back at fmax) into the next interval.
			overrun := busy - slot
			f := p.Levels[plan.BusyLevel]
			rep.CarryOver[i] = time.Duration(float64(overrun) * f.Hz / p.fmax().Hz)
			busy = slot
			rep.DeadlineMisses++
		}
		rep.BusyTime[i] = busy
		idle := slot - busy
		eBusy := p.power.busyWatts(p.Levels[plan.BusyLevel]) * busy.Seconds()
		eIdle := p.power.idleWatts(p.Levels[plan.IdleLevel]) * idle.Seconds()
		rep.EnergyJ += eBusy + eIdle
	}
	// Guarded like Totals.AvgPowerW: a degenerate slot must yield 0, not
	// the NaN/Inf that encoding/json refuses to marshal (the entry check
	// rejects non-positive slots today; this keeps the report JSON-safe
	// even if that precondition ever loosens).
	if sec := slot.Seconds(); sec > 0 {
		rep.AvgPowerW = rep.EnergyJ / sec
	}
	return rep, nil
}

// Totals accumulates SlotReports across a service run — the long-horizon
// view a serving loop reports (total energy, deadline misses, carry-over)
// where SlotReport is the per-slot view.
type Totals struct {
	// Slots counts accumulated reports; Time is their summed slot length.
	Slots int
	Time  time.Duration
	// EnergyJ is the total energy over all accumulated slots.
	EnergyJ float64
	// PeakPowerW is the highest per-slot average power seen.
	PeakPowerW float64
	// DeadlineMisses sums the per-slot miss counts.
	DeadlineMisses int
	// CarryOver sums the work (at fmax) that slipped past its slot.
	CarryOver time.Duration
}

// Add folds one slot report into the totals. Nil reports are ignored so
// callers can pass partial outcomes unconditionally.
func (t *Totals) Add(r *SlotReport) {
	if r == nil {
		return
	}
	t.Slots++
	t.Time += r.Slot
	t.EnergyJ += r.EnergyJ
	if r.AvgPowerW > t.PeakPowerW {
		t.PeakPowerW = r.AvgPowerW
	}
	t.DeadlineMisses += r.DeadlineMisses
	for _, c := range r.CarryOver {
		t.CarryOver += c
	}
}

// Merge folds another accumulation into the totals — how a fleet sums
// its platforms: counts, time and energy add up, the peak is the higher
// of the two.
func (t *Totals) Merge(o Totals) {
	t.Slots += o.Slots
	t.Time += o.Time
	t.EnergyJ += o.EnergyJ
	if o.PeakPowerW > t.PeakPowerW {
		t.PeakPowerW = o.PeakPowerW
	}
	t.DeadlineMisses += o.DeadlineMisses
	t.CarryOver += o.CarryOver
}

// AvgPowerW returns the average power over all accumulated slots (0 when
// empty).
func (t *Totals) AvgPowerW() float64 {
	if t.Time <= 0 {
		return 0
	}
	return t.EnergyJ / t.Time.Seconds()
}
