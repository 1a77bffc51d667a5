package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics by name and remembers notes for the human-readable
// listing (sample counts, a refused percentile).
type metricSet struct {
	m     map[string]metric
	notes map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{m: make(map[string]metric), notes: make(map[string]string)}
}

func (s *metricSet) put(name string, v float64, unit string) {
	s.m[name] = metric{Value: v, Unit: unit}
}

func (s *metricSet) note(name, format string, args ...any) {
	s.notes[name] = fmt.Sprintf(format, args...)
}

func (s *metricSet) names() []string {
	ns := make([]string, 0, len(s.m))
	for n := range s.m {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// check reports the first metric that is not a finite number.
func (s *metricSet) check() error {
	for _, n := range s.names() {
		if v := s.m[n].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", n, v)
		}
	}
	return nil
}

// totals is the sum of a pass's per-unit accumulators, formed in unit order.
type totals struct {
	counts
	roundMs []float64
	joules  float64
	s       float64 // window slowdown on the wall clock
	sCPU    float64 // window slowdown in CPU time
	refMin  float64 // seconds
	refN    int
	offCPU  float64       // share of the kernel's wall time its thread was not running
	wall    time.Duration // measured window, reference kernel excluded
	cpu     time.Duration // process CPU over the window, kernel excluded
}

func (p *pass) totals() *totals {
	t := &totals{}
	r := p.rec
	for i := range r.units {
		u := &r.units[i]
		t.add(&u.counts)
		t.roundMs = append(t.roundMs, u.roundMs...)
		t.joules += u.energyEnd.EnergyJ - u.energyStart.EnergyJ
	}
	ref := r.winRef.spent()
	t.s, t.refMin, t.refN = r.winRef.slowdown()
	t.sCPU = r.winRef.cpuSlowdown()
	t.offCPU = 1 - share(float64(ref.cpu), float64(ref.wall))
	// The kernel runs on one unit's goroutine while the others keep
	// serving, so it costs the window 1/units of its own time.
	t.wall = r.winEnd.Sub(r.winStart) - ref.wall/time.Duration(len(r.units))
	t.cpu = r.cpuEnd - r.cpuStart - ref.cpu
	return t
}

// outcome is the run's operation count for the result object: the frames
// the workload offered, and how many of them were never served — refused
// at the door, timed out in the queue, failed or lost.
func (p *pass) outcome() (attempted, failed int) {
	return p.rec.offered, p.rec.offered - p.totals().framesAll
}

// endToEnd computes the end-to-end metrics of an untraced pass. setupSeconds
// is the already-deflated set-up time of the run.
func (p *pass) endToEnd(setupSeconds float64) (*metricSet, error) {
	t := p.totals()
	if t.frames == 0 || t.gops == 0 || len(t.roundMs) == 0 {
		return nil, fmt.Errorf("nothing measured: %d frames, %d GOPs, %d rounds", t.frames, t.gops, len(t.roundMs))
	}
	ms := newMetricSet()
	frames := float64(t.frames)
	ms.put("setup_s", setupSeconds, "s")
	ms.put("frames_per_s", inflateRate(frames/t.wall.Seconds(), t.s), "1/s")
	ms.put("cpu_ms_per_frame", deflate(float64(t.cpu)/1e6/frames, t.sCPU), "ms")
	ms.put("alloc_kb_per_frame", float64(p.rec.memEnd.TotalAlloc-p.rec.memStart.TotalAlloc)/1024/frames, "KB")
	ms.put("served_share", share(float64(t.framesAll), float64(p.rec.offered)), "share")
	ms.put("full_quality_share", share(float64(t.fullQualityGOPs), float64(t.gops)), "share")
	ms.put("psnr_db", t.psnrSum/frames, "dB")
	ms.put("kbps", float64(t.bits)/frames*frameFPS/1e3, "kb/s")
	ms.put("sim_joules_per_gop", t.joules/float64(t.gops), "J")
	p.hostLines(ms, t)
	return ms, ms.check()
}

// Beyond these the deflated timings of a run are extrapolations, and the
// run says so: the host ran at two thirds of its own best, or something
// else on the box kept the kernel's thread off a core for a tenth of the
// time (dist_live's own HTTP goroutines account for up to half of that).
const (
	slowdownLimit = 1.5
	offCPULimit   = 0.10
)

// hostLines adds the host.* metrics of a pass: the slowdowns the timings
// were divided by, the kernel floor and the raw values, so that
// raw = reported × host.slowdown can always be recovered.
func (p *pass) hostLines(ms *metricSet, t *totals) {
	ms.put("host.slowdown", t.s, "ratio")
	if t.s > slowdownLimit {
		ms.note("host.slowdown", "UNSTEADY HOST: above %g, the wall-clock timings of this run are extrapolated", slowdownLimit)
	}
	ms.put("host.cpu_slowdown", t.sCPU, "ratio")
	ms.put("host.ref_offcpu_share", t.offCPU, "share")
	if t.offCPU > offCPULimit {
		ms.note("host.ref_offcpu_share", "BUSY BOX: another process held a core; the wall-clock timings of this run are extrapolated")
	}
	ms.put("host.ref_ms_min", t.refMin*1e3, "ms")
	ms.put("host.ref_samples", float64(t.refN), "count")
	ms.put("host.frames_per_s_raw", float64(t.frames)/t.wall.Seconds(), "1/s")
	ms.put("host.round_ms_p50_raw", median(t.roundMs), "ms")
	ms.put("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
}

// firstGOPs returns, in unit and session order, each served session's
// first-GOP latency in milliseconds: Submit return → first GOP at the sink.
func (p *pass) firstGOPs() []float64 {
	r := p.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for i := range r.units {
		u := &r.units[i]
		ids := make([]int, 0, len(u.firstGOPAt))
		for id := range u.firstGOPAt {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if sub, ok := r.submitAt[sessKey{i, id}]; ok {
				out = append(out, math.Max(0, float64(u.firstGOPAt[id].Sub(sub))/1e6))
			}
		}
	}
	return out
}
