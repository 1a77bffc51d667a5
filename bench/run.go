package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tenancy"
)

// passExtras is what a workload's run leaves behind for the layer probes.
type passExtras struct {
	jsonl       *serve.JSONLSink
	metricsSink *metrics.Sink
	tenants     *tenancy.Registry
	fleets      []*serve.Fleet
	http        *httpProbe
}

// options is one invocation of the benchmark on one workload.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for the span file; "" keeps spans in memory only
	smoke    bool   // the tier-1 smoke test: a handful of rounds, one set-up
}

// result is what one invocation reports.
type result struct {
	workload  string
	traced    bool
	metrics   *metricSet
	attempted int
	failed    int
	problems  []string // correctness failures; empty means correct
}

// setupRepeats is how many times the system set-up (build the fleet, seed
// its LUTs, submit, serve the warm-up rounds) is timed per invocation, as
// the acceptance driver's contract asks: setup_s reports the median so one
// slow repeat does not move it. All but the last are rehearsals — the
// workload at its rehearsal size, just long enough to open the window.
const setupRepeats = 3

// processStart is when the main package finished initialising: the
// fallback start of set-up time where /proc is unreadable.
var processStart = time.Now()

// sinceProcessStart is the time since the kernel started this process, so
// that work a later PR moves into package initialisation still shows in
// setup_s. Falls back to main-package initialisation.
func sinceProcessStart() time.Duration {
	stat, err1 := os.ReadFile("/proc/self/stat")
	up, err2 := os.ReadFile("/proc/uptime")
	if err1 == nil && err2 == nil {
		// Field 22 (starttime, clock ticks since boot) counted after the
		// parenthesised command name, which may itself hold spaces.
		if i := strings.LastIndexByte(string(stat), ')'); i >= 0 {
			f := strings.Fields(string(stat[i+1:]))
			upf := strings.Fields(string(up))
			if len(f) > 19 && len(upf) > 0 {
				ticks, e1 := strconv.ParseFloat(f[19], 64)
				uptime, e2 := strconv.ParseFloat(upf[0], 64)
				if e1 == nil && e2 == nil {
					const hz = 100 // USER_HZ on every Linux ABI Go supports
					if d := uptime - ticks/hz; d > 0 && d < 3600 {
						return time.Duration(d * float64(time.Second))
					}
				}
			}
		}
	}
	return time.Since(processStart)
}

// runWorkload executes one invocation: set-up, the pass or passes, the
// correctness gate, and the metrics the mode reports.
func runWorkload(o options) (*result, error) {
	wl := workloadByName(o.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds %d: need at least 1", o.seconds)
	}
	size := wl.size(o.seconds)
	if o.smoke {
		size = wl.smoke
	}
	res := &result{workload: wl.name, traced: o.trace}

	// Set-up, part one: render the clips. The reference kernel runs
	// between renders so set-up time can be deflated like everything else.
	initTime := sinceProcessStart()
	if o.smoke {
		initTime = 0 // the test binary's age is not the benchmark's
	}
	host := newHostClock()
	renderRef := host.phase()
	renderRef.sample(3)
	t0 := time.Now()
	clips, err := renderClips(wl.clips, size.clip, runtime.GOMAXPROCS(0), func() { renderRef.sample(1) })
	if err != nil {
		return nil, err
	}
	renderTime := time.Since(t0)
	sRender, _, _ := renderRef.slowdown()
	// The system set-ups get a phase of their own: both cores render
	// clips, one serves warm-up rounds, and the host treats the two
	// differently.
	setupRef := host.phase()

	if o.trace {
		return runTraced(o, wl, size, clips, setupRef, res)
	}

	// Set-up, part two: build the system and serve the warm-up rounds,
	// setupRepeats times; the last repeat carries on into the measured
	// window.
	var sizes []sizing
	for i := 1; i < setupRepeats && !o.smoke; i++ {
		sizes = append(sizes, wl.rehearsal.full())
	}
	sizes = append(sizes, size)
	var setups []float64
	var p *pass
	for _, sz := range sizes {
		p = newPass(wl, o.seed, sz, clips, nil, setupRef)
		began := time.Now()
		if err := wl.run(p); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		setups = append(setups, p.rec.winStart.Sub(began).Seconds())
	}
	sSetup, _, _ := setupRef.slowdown()
	setupSeconds := deflate(initTime.Seconds()+renderTime.Seconds(), sRender) + deflate(median(setups), sSetup)

	ms, err := p.endToEnd(setupSeconds)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	ms.put("host.setup_slowdown", sSetup, "ratio")
	res.metrics = ms
	res.attempted, res.failed = p.outcome()
	res.problems = append(res.problems, checkPass(p, o)...)
	return res, nil
}
